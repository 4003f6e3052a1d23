// Frame-incremental feature extraction: the one implementation of the
// preprocessing + orientation + liveness feature chain (Fig. 2).
//
// The operator consumes raw audio in arbitrary chunks as it arrives and
// folds each hop-aligned analysis block into running accumulators, so
// finalizing a segment costs almost nothing once its audio is in:
//
//   * band-pass biquad state carried per channel (the Fig. 2 preprocessing
//     filter, run over all channels at once in SIMD lanes);
//   * per-block GCC-PHAT lag windows and cross-spectral coherence partial
//     sums for every microphone pair (SRP and the pair features are means
//     over the selected blocks at finalize);
//   * per-block directivity spectra of a sliding ~85 ms mixdown window
//     (HLBR and the banded low-band statistics). Those features read
//     100 Hz – 4 kHz only, so the mixdown is low-passed and decimated by a
//     power of two D first (D = 4 at 48 kHz: a 1024-point transform at
//     12 kHz over the window a 4096-point one covered at 48 kHz, with the
//     same 11.7 Hz bins);
//   * channel 0 decimated to the liveness rate by an integer step (an
//     anti-alias low-pass first unless the step is 1) feeding a rolling
//     STFT plus running Σx/Σx² for the liveness normalization. Only rates
//     that are integer multiples of the liveness rate are accepted (see
//     liveness_decimation()).
//
// The block transforms run in float32, in the eight lanes of the dsp lane
// kernels per AVX2 register: each block's 4 channels fill them as two
// parts each (up to 8 channels as one part), the pairs are read eight at a
// time for the PHAT cross spectrum, coherence sums and pruned inverse (the
// 6 pairs of a 4-microphone array in one group), and the directivity
// transform runs as eight parts of one signal. The band-pass, the
// directivity decimator (four outputs at once), the coherence partial
// sums, the per-block GCC windows and spectra, every finalize reduction
// and the whole liveness path stay float64. Every lane computes what a
// one-signal computation would, so the features are the same at every
// SIMD level.
//
// Silence trimming happens lazily: every block also records its RMS
// envelope, and finalize selects the active block span (see
// PreprocessConfig for the rules). Pre-roll blocks may therefore be
// accumulated before the utterance is confirmed and post-roll blocks
// after it ends — the trim keeps the decision independent of how
// generously the endpointer fed.
//
// The block sequence — and hence every finalized feature — is invariant
// to push() chunking: state transitions depend only on cumulative sample
// counts. The batch extractors delegate to this operator, so streamed and
// pre-segmented scoring agree bit for bit by construction.
//
// Lifecycle: begin() → push()* → finalize_*() (either order, idempotent)
// → begin() again. Not thread-safe; one operator per stream/thread.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "audio/sample_buffer.h"
#include "core/liveness_features.h"
#include "core/orientation_features.h"
#include "dsp/biquad.h"
#include "dsp/fft.h"
#include "dsp/fir.h"
#include "dsp/rolling_stft.h"
#include "ml/dataset.h"

namespace headtalk::core {

/// The "Preprocessing" block of Fig. 2: a Butterworth band-pass keeping
/// 100 Hz – 16 kHz, plus energy-based trimming of leading/trailing
/// silence on the per-block RMS envelope shared by all channels (one span
/// for every channel, so inter-channel delays are preserved).
struct PreprocessConfig {
  int filter_order = 5;
  double low_hz = 100.0;
  /// Clamped to 0.45 × the sample rate, so low-rate captures stay valid.
  double high_hz = 16000.0;
  /// Trim threshold relative to the segment's loudest block (dB); <= -120
  /// disables trimming.
  double trim_threshold_db = -35.0;
  /// Padding kept around the detected utterance (rounded up to blocks).
  double trim_pad_ms = 40.0;
  /// Absolute silence floor (dBFS, block RMS). When the loudest block sits
  /// below it the segment holds no utterance, and the relative threshold
  /// would otherwise latch onto noise wiggle — every block is kept.
  double silence_floor_db = -65.0;
  /// Shortest detected span (ms, before padding) worth trimming to; a
  /// narrower one is a noise blip, not speech — even the shortest wake
  /// word syllable outlasts it — so no trimming happens.
  double min_active_ms = 60.0;
};

struct IncrementalExtractorConfig {
  PreprocessConfig preprocess{};
  OrientationFeatureConfig orientation{};
  LivenessFeatureConfig liveness{};
  /// Disable a stage to skip its per-block work and storage entirely
  /// (the single-feature wrapper extractors each enable only their own).
  bool enable_orientation = true;
  bool enable_liveness = true;
  /// Analysis block length (ms): the envelope/trim granularity and the
  /// update cadence of every accumulator. 20 ms matches the streaming
  /// VAD frame, so one endpointer frame is one accumulator update.
  double block_ms = 20.0;
};

/// Revision of the feature definitions this operator computes. Anything
/// that stores features (the collector's disk cache) keys on it, so bump
/// it whenever a change moves any feature value.
///   9: extraction moved into this operator (stateful band-pass, block trim).
///  10: every SIMD level built without FMA (AVX2 rounds like scalar).
///  11: directivity from the decimated mixdown (1024 points at 12 kHz),
///      sqrt magnitudes, PHAT by one reciprocal.
///  12: training liveness trims on the all-channel envelope, as serving does.
///  13: block STFT, pair PHAT and inverse, and directivity spectrum in float32.
///  14: block envelope summed in lanes (a fixed lane-blocked Σx² order; the
///      trim can move only where a block sits exactly on its threshold).
inline constexpr int kFeatureVersion = 14;

/// The liveness stage's decimation step from `sample_rate` to `model_rate`:
/// sample_rate / model_rate when that is a whole number >= 1 (1 at 16 kHz,
/// 3 at 48 kHz, 6 at 96 kHz), and 0 — unsupported — for any other rate
/// (44.1 kHz, 8 kHz). begin() and the server's HELLO both apply it.
[[nodiscard]] std::size_t liveness_decimation(double sample_rate, double model_rate) noexcept;

/// The directivity path's mixdown decimator for `channels` microphones at
/// `sample_rate` when the directivity bands end at `top_hz`: decimation by
/// the largest power of two D with sample_rate / D >= 3 × top_hz (D = 4 at
/// 48 kHz for the 4 kHz bands), through a 12·D + 1-tap Kaiser low-pass with
/// pass band to top_hz and stop band from sample_rate / D − top_hz, its
/// gain the mixdown's 1 / channels. D = 1 is the single tap 1 / channels.
[[nodiscard]] dsp::FirDecimator directivity_decimator(double sample_rate,
                                                      std::size_t channels, double top_hz);

class IncrementalExtractor {
 public:
  IncrementalExtractor() = default;

  /// Starts a new segment. Resets all accumulators and filter state.
  /// Throws std::invalid_argument when the liveness stage is enabled and
  /// liveness_decimation() rejects the sample rate.
  void begin(const IncrementalExtractorConfig& config, std::size_t channels,
             double sample_rate);

  /// Feeds the next chunk of the segment (any length, including empty).
  /// Channel count and sample rate must match begin().
  void push(const audio::MultiBuffer& chunk);
  /// Same, from `frames` samples at each of channels()'s per-channel
  /// pointers (`channels[c]`), which the caller sizes: a ring's run or a
  /// decoded wire chunk, fed in place. The chunk overload forwards here.
  void push(const audio::Sample* const* channels, std::size_t frames);

  /// Finalizes and returns the liveness feature vector (layout identical
  /// to LivenessFeatureExtractor::dimension()). Constant-time in the
  /// segment length up to the trim scan and the per-block reductions.
  [[nodiscard]] ml::FeatureVector finalize_liveness();

  /// Finalizes and returns the orientation feature vector (layout
  /// identical to OrientationFeatureExtractor::dimension(channels)).
  /// Throws std::invalid_argument when begun with fewer than 2 channels.
  [[nodiscard]] ml::FeatureVector finalize_orientation();

  [[nodiscard]] bool open() const noexcept { return open_; }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }
  [[nodiscard]] double sample_rate() const noexcept { return sample_rate_; }
  /// Samples accepted per channel since begin().
  [[nodiscard]] std::size_t samples_pushed() const noexcept { return pushed_; }
  /// Analysis blocks fully accumulated so far.
  [[nodiscard]] std::size_t blocks_accumulated() const noexcept {
    return envelope_.size();
  }
  [[nodiscard]] const IncrementalExtractorConfig& config() const noexcept {
    return config_;
  }
  /// Samples per analysis block.
  [[nodiscard]] std::size_t block_length() const noexcept { return block_len_; }
  /// The blocks the silence trim kept, [begin, end); valid after either
  /// finalize. Block b covers samples [b, b + 1) × block_length().
  [[nodiscard]] std::pair<std::size_t, std::size_t> active_blocks() const noexcept {
    return {active_begin_, active_end_};
  }
  /// The directivity mixdown's decimation factor D: the largest power of
  /// two that keeps sample_rate() / D >= 3 × the top feature band edge
  /// (4, 2 and 1 at 48, 44.1 and 16 kHz for the default bands).
  [[nodiscard]] std::size_t directivity_decimation() const noexcept { return dir_step_; }
  /// Points of the directivity transform, at sample_rate() / D: the ~80 ms
  /// window rounded up to a power of two at the full rate, divided by D.
  [[nodiscard]] std::size_t directivity_fft_size() const noexcept { return dir_fft_; }

  // Correlation results of the last finalize_orientation(), cleared by
  // begin(); a returned span is valid until the next begin() or
  // finalize_orientation(). Pairs are ordered (0,1), (0,2), …, (n-2,n-1);
  // every window spans lags -max_lag()..+max_lag().
  [[nodiscard]] int max_lag() const noexcept { return max_lag_; }
  [[nodiscard]] std::size_t pair_count() const noexcept { return pair_count_; }
  /// Mean GCC-PHAT window of a pair over the active blocks; all zeros when
  /// the pair fell below the coherence floor. Throws std::out_of_range
  /// for a bad index or before finalize_orientation().
  [[nodiscard]] std::span<const double> pair_gcc(std::size_t pair) const;
  [[nodiscard]] bool pair_pruned(std::size_t pair) const;
  /// The pair's TDoA in samples (lag of the window's first maximum); 0 for
  /// a pruned pair.
  [[nodiscard]] int pair_tdoa(std::size_t pair) const;
  /// Weighted SRP-PHAT sequence (Eq. 6): the sum of the unpruned pair
  /// windows.
  [[nodiscard]] std::span<const double> srp() const noexcept { return srp_; }

 private:
  void process_block(std::size_t valid);
  void accumulate_pairs(std::size_t valid);
  void accumulate_directivity(std::size_t valid);
  void feed_liveness(std::span<const audio::Sample> samples);
  void drain_liveness_frames();
  void finalize_shared();
  void select_active_blocks();
  void liveness_features_from(std::span<const double> mean_magnitude,
                              std::size_t fft_size, ml::FeatureVector& out) const;

  /// What the filters, the decimator and the liveness window spectrum were
  /// designed for (see begin()).
  struct Design {
    double sample_rate = 0.0;
    std::size_t channels = 0;
    int filter_order = 0;
    double low_hz = 0.0, high_hz = 0.0;  ///< the band-pass band, high_hz clamped
    bool orientation = false;
    double top_hz = 0.0;  ///< the directivity bands' top edge
    bool liveness = false;
    double live_rate = 0.0;
    std::size_t live_frame = 0;
    bool operator==(const Design&) const = default;
  };

  IncrementalExtractorConfig config_{};
  Design design_{};
  std::size_t channels_ = 0;
  double sample_rate_ = 0.0;
  bool open_ = false;
  bool finalized_ = false;

  // Preprocessing: the band-pass (one design, per-channel delay lines)
  // and the block framer, which the band-pass writes into directly.
  dsp::MultichannelBiquadCascade bandpass_;
  std::vector<audio::Sample> block_;  ///< [channel][block_len_] open block
  std::vector<const audio::Sample*> chunk_in_;  ///< push(MultiBuffer)'s channels
  std::vector<const audio::Sample*> filter_in_;
  std::vector<audio::Sample*> filter_out_;
  std::size_t block_len_ = 0;
  std::size_t block_fill_ = 0;  ///< samples of the open block filled so far
  std::size_t pushed_ = 0;

  // Per-block envelope (RMS across channels), for the lazy trim.
  std::vector<double> envelope_;
  std::size_t active_begin_ = 0, active_end_ = 0;  ///< selected [b0, b1)

  // Orientation accumulators.
  bool orientation_on_ = false;
  int max_lag_ = 0;
  std::size_t pair_count_ = 0;
  std::size_t coherence_blocks_ = 0;  ///< sampled-bin groups per block spectrum
  std::vector<double> gcc_blocks_;    ///< [block][pair][2*max_lag+1]
  std::vector<double> coherence_partials_;  ///< [block][pair][cblock][cr,ci,px,py]
  std::vector<double> pair_gcc_;      ///< finalized [pair][2*max_lag+1]
  std::vector<char> pair_pruned_;     ///< finalized, per pair
  std::vector<double> srp_;           ///< finalized [2*max_lag+1]
  std::size_t block_fft_ = 0;
  std::vector<dsp::LaneSpectrumF> channel_spectra_;  ///< per group of 8 channels
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;  ///< (i, j), pair order
  dsp::LaneSpectrumF pair_x_, pair_y_;  ///< gathered pair operands (> 8 channels)
  dsp::LaneSpectrumF cross_;            ///< PHAT cross spectra of one pair group
  std::vector<double> coherence_sums_;  ///< [cblock][cr,ci,px,py][lane]
  std::vector<double> lag_windows_;     ///< [lane][2*max_lag+1]
  dsp::LaneScratchF lane_scratch_;

  // Directivity: mixdown → low-pass decimator → ring of the last dir_fft_
  // decimated samples → per-block truncated spectrum.
  dsp::FirDecimator decimator_;     ///< the mixdown's 1/channels folded into its taps
  std::size_t dir_step_ = 1;        ///< decimation factor D
  double dir_rate_ = 0.0;           ///< sample_rate_ / D
  std::size_t dir_fft_ = 0;
  std::size_t dir_bins_ = 0;  ///< bins stored per block (covers the feature bands)
  std::vector<audio::Sample> dir_ring_;  ///< the last dir_fft_ decimated samples
  std::size_t decimated_ = 0;            ///< decimated samples produced so far
  std::vector<double> dir_blocks_;  ///< [block][dir_bins_]

  // Liveness accumulators.
  std::size_t live_step_ = 0;  ///< decimation to the liveness rate; 0 = stage off
  dsp::MultichannelBiquadCascade antialias_;  ///< one channel, step > 1 only
  std::vector<audio::Sample> live_filtered_;  ///< step > 1: one block filtered
  std::size_t decimate_phase_ = 0;  ///< position of the next sample within its step
  dsp::RollingStft live_stft_;
  std::size_t live_bins_ = 0;
  std::vector<dsp::Complex> live_spectra_;  ///< [frame][live_bins_]
  std::vector<std::size_t> live_valid_;     ///< valid samples per stored frame
  double live_sum_ = 0.0, live_sum_sq_ = 0.0;
  std::size_t live_count_ = 0;  ///< resampled samples emitted so far
  std::vector<std::size_t> resampled_upto_;  ///< cumulative live_count_ per block
  std::vector<double> live_cum_sum_, live_cum_sum_sq_;  ///< cumulative per block
  std::vector<audio::Sample> live_emitted_;  ///< step > 1: one block's output
  dsp::HalfSpectrum live_window_spectrum_;  ///< FFT of the full analysis window
  dsp::HalfSpectrum live_truncated_;  ///< FFT of a padded tail frame's window head
  dsp::FftScratch live_scratch_;      ///< the two window transforms' workspace
};

}  // namespace headtalk::core
