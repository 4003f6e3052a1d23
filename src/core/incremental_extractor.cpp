#include "core/incremental_extractor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "audio/gain.h"
#include "dsp/simd/dispatch.h"
#include "dsp/spectral.h"
#include "dsp/srp.h"
#include "dsp/stats.h"
#include "obs/metrics.h"

namespace headtalk::core {
namespace {

// Same PHAT regularizer as gcc_phat's default.
constexpr double kPhatEpsilon = 1e-12;
// Pair coherence is block-averaged magnitude-squared coherence
// |Σxy*|²/(Σ|x|²Σ|y|²) over groups of kCoherenceBlock bins sampled every
// kCoherenceStride-th bin. Single-bin coherence is identically 1, so the
// averaging inside each group is what makes this a detector: independent
// noise decorrelates to ~1/kCoherenceBlock while coupled channels stay
// near 1.
constexpr std::size_t kCoherenceStride = 4;
constexpr std::size_t kCoherenceBlock = 64;

// Sliding directivity analysis window: ~85 ms of mixdown history per
// block (4096 samples at 48 kHz, rounded up to a power of two at the full
// rate → 11.7 Hz bins, comfortably finer than the 15 Hz chunks of the
// 20-band low-band statistics). The transform runs on the decimated
// mixdown: 1024 samples at 12 kHz span the same window with the same bins.
constexpr double kDirectivityWindowSeconds = 0.08;
// The decimated rate keeps at least this multiple of the top feature band
// edge: the band [0, top] plus a transition band [top, rate/D - top] whose
// aliases land above top.
constexpr double kDirectivityOversampling = 3.0;
// Anti-alias taps per unit of decimation (plus one, for an odd count):
// 49 taps at D = 4 reach ~65 dB over the 4–8 kHz transition at 48 kHz.
constexpr std::size_t kDirectivityTapsPerStep = 12;

constexpr std::size_t kLanes = dsp::simd::kFftLanes;

obs::Counter& pruned_counter() {
  static obs::Counter& c = obs::Registry::global().counter("dsp.srp.pairs_pruned");
  return c;
}

// Coherence groups per block spectrum of `bins` bins. A ragged tail group
// with fewer than kCoherenceBlock/2 samples would read as spuriously
// coherent, so it is folded away.
std::size_t coherence_block_count(std::size_t bins) {
  std::size_t blocks = 0;
  std::size_t k = 0;
  while (k < bins) {
    std::size_t count = 0;
    for (; count < kCoherenceBlock && k < bins; k += kCoherenceStride, ++count) {
    }
    if (count < kCoherenceBlock / 2) break;
    ++blocks;
  }
  return blocks;
}

// The directivity window at the full rate, rounded up to a power of two.
std::size_t directivity_window(double sample_rate) {
  return std::max<std::size_t>(
      2, dsp::next_pow2(static_cast<std::size_t>(sample_rate * kDirectivityWindowSeconds)));
}

// The directivity decimation factor: the largest power of two D with
// rate / D >= kDirectivityOversampling * top_hz whose window keeps at
// least 8 points (rfft_magnitudes_head's minimum).
std::size_t directivity_step(double sample_rate, double top_hz) {
  const std::size_t window = directivity_window(sample_rate);
  std::size_t step = 1;
  while (top_hz > 0.0 && window / (2 * step) >= 8 &&
         sample_rate / static_cast<double>(2 * step) >= kDirectivityOversampling * top_hz) {
    step *= 2;
  }
  return step;
}

// First-maximum argmax over the lag window, as CorrelationSequence::peak_lag.
int window_peak_lag(std::span<const double> values, int max_lag) {
  if (values.empty()) return 0;
  const auto it = std::max_element(values.begin(), values.end());
  return static_cast<int>(std::distance(values.begin(), it)) - max_lag;
}

}  // namespace

std::size_t liveness_decimation(double sample_rate, double model_rate) noexcept {
  if (!(sample_rate > 0.0) || !(model_rate > 0.0)) return 0;
  const double factor = sample_rate / model_rate;
  const double rounded = std::round(factor);
  if (rounded < 1.0 || std::abs(factor - rounded) >= 1e-9) return 0;
  return static_cast<std::size_t>(rounded);
}

dsp::FirDecimator directivity_decimator(double sample_rate, std::size_t channels,
                                        double top_hz) {
  // Pass band to top_hz, stop band from rate/D - top_hz (everything that
  // aliases below top_hz), the mixdown's 1/channels as the gain.
  const std::size_t step = directivity_step(sample_rate, top_hz);
  const double gain = 1.0 / static_cast<double>(channels);
  const double rate = sample_rate / static_cast<double>(step);
  dsp::FirDecimator decimator;
  decimator.reset(step == 1 ? std::vector<double>{gain}
                            : dsp::kaiser_lowpass(kDirectivityTapsPerStep * step + 1, top_hz,
                                                  rate - top_hz, sample_rate, gain),
                  step);
  return decimator;
}

void IncrementalExtractor::begin(const IncrementalExtractorConfig& config,
                                 std::size_t channels, double sample_rate) {
  if (channels == 0) {
    throw std::invalid_argument("IncrementalExtractor: need at least one channel");
  }
  if (sample_rate <= 0.0) {
    throw std::invalid_argument("IncrementalExtractor: bad sample rate");
  }
  const double live_rate = config.liveness.model_sample_rate;
  if (config.enable_liveness && liveness_decimation(sample_rate, live_rate) == 0) {
    char message[160];
    std::snprintf(message, sizeof message,
                  "IncrementalExtractor: sample rate %g Hz is not a whole multiple of the "
                  "%g Hz liveness rate",
                  sample_rate, live_rate);
    throw std::invalid_argument(message);
  }
  config_ = config;
  channels_ = channels;
  sample_rate_ = sample_rate;
  open_ = true;
  finalized_ = false;
  pushed_ = 0;

  // Preprocessing: one band-pass design, a delay line per channel carried
  // across chunks so they filter continuously.
  const double high = std::min(config_.preprocess.high_hz, 0.45 * sample_rate);
  bandpass_.reset(dsp::butterworth_bandpass(config_.preprocess.filter_order,
                                            config_.preprocess.low_hz, high,
                                            sample_rate),
                  channels);
  block_len_ = static_cast<std::size_t>(
      std::max(1.0, config_.block_ms * sample_rate / 1000.0));
  block_.assign(channels * block_len_, 0.0);
  filter_in_.assign(channels, nullptr);
  filter_out_.assign(channels, nullptr);
  block_fill_ = 0;

  orientation_on_ = config_.enable_orientation && channels >= 2;
  max_lag_ = 0;
  pair_count_ = 0;
  std::size_t block_fft = std::max<std::size_t>(2, dsp::next_pow2(block_len_));
  if (orientation_on_) {
    max_lag_ = config_.orientation.max_lag > 0
                   ? config_.orientation.max_lag
                   : dsp::srp_max_lag(config_.orientation.max_mic_distance_m,
                                      sample_rate, config_.orientation.speed_of_sound);
    pair_count_ = channels * (channels - 1) / 2;
    // The per-block transform covers the linear-correlation padding and the
    // full lag window (negative lags wrap to the tail).
    const auto lag = static_cast<std::size_t>(max_lag_);
    block_fft = std::max<std::size_t>(
        2, dsp::next_pow2(std::max(block_len_ + lag + 1, 2 * lag + 1)));
  }

  block_fft_ = block_fft;
  channel_spectra_.resize(orientation_on_ ? (channels + kLanes - 1) / kLanes : 0);
  pairs_.clear();
  for (std::size_t i = 0; orientation_on_ && i + 1 < channels; ++i) {
    for (std::size_t j = i + 1; j < channels; ++j) pairs_.emplace_back(i, j);
  }

  envelope_.clear();
  active_begin_ = active_end_ = 0;

  coherence_blocks_ = orientation_on_ ? coherence_block_count(block_fft / 2 + 1) : 0;
  gcc_blocks_.clear();
  coherence_partials_.clear();
  pair_gcc_.clear();
  pair_pruned_.clear();
  srp_.clear();
  cross_.fft_size = block_fft;
  cross_.re.assign((block_fft / 2 + 1) * kLanes, 0.0);
  cross_.im.assign((block_fft / 2 + 1) * kLanes, 0.0);
  coherence_sums_.assign(coherence_blocks_ * 4 * kLanes, 0.0);

  // Directivity: the window is sized at the full rate and divided by the
  // power-of-two decimation, so its duration and bin spacing do not depend
  // on D.
  const double top_hz =
      std::max(config_.orientation.high_band_hi, config_.orientation.low_band_hi);
  dir_step_ = directivity_step(sample_rate, top_hz);
  dir_rate_ = sample_rate / static_cast<double>(dir_step_);
  dir_fft_ = directivity_window(sample_rate) / dir_step_;
  dir_bins_ = std::min(dir_fft_ / 2 + 1,
                       static_cast<std::size_t>(
                           std::ceil(top_hz * static_cast<double>(dir_fft_) / dir_rate_)) +
                           2);
  if (orientation_on_) {
    // One design per (rate, channels, band); a later segment only clears
    // the history.
    const DirectivityDesign design{sample_rate, channels, top_hz};
    if (design != dir_design_) {
      decimator_ = directivity_decimator(sample_rate, channels, top_hz);
      dir_design_ = design;
    } else {
      decimator_.restart();
    }
    dir_ring_.assign(dir_fft_, 0.0);
  }
  decimated_ = 0;
  dir_blocks_.clear();

  // Liveness: channel 0 decimated by an integer step to the model rate
  // (step 1 streams the band-passed samples as they are).
  live_step_ = 0;
  decimate_phase_ = 0;
  live_sum_ = live_sum_sq_ = 0.0;
  live_count_ = 0;
  live_spectra_.clear();
  live_valid_.clear();
  resampled_upto_.clear();
  live_cum_sum_.clear();
  live_cum_sum_sq_.clear();
  if (config_.enable_liveness) {
    live_step_ = liveness_decimation(sample_rate, live_rate);
    if (live_step_ > 1) {
      antialias_.reset(dsp::butterworth_lowpass(10, 0.45 * live_rate, sample_rate), 1);
      live_filtered_.resize(block_len_);
      live_emitted_.resize(block_len_ / live_step_ + 1);
    }
    dsp::RollingStft::Config stft;
    stft.channels = 1;
    stft.frame_size = config_.liveness.stft_frame;
    stft.hop_size = config_.liveness.stft_hop;
    stft.window = dsp::WindowType::kHann;
    live_stft_.reset(stft);
    live_bins_ = live_stft_.fft_size() / 2 + 1;
    // FFT of the analysis window itself: finalize subtracts the segment
    // mean from every stored frame spectrum as mu * W(f) (linearity), so
    // normalization can happen after the fact without reprocessing.
    live_window_spectrum_ = dsp::rfft_half(
        dsp::shared_window(dsp::WindowType::kHann, config_.liveness.stft_frame),
        live_stft_.fft_size());
  }
}

void IncrementalExtractor::push(const audio::MultiBuffer& chunk) {
  if (!open_) throw std::logic_error("IncrementalExtractor: push before begin");
  if (finalized_) throw std::logic_error("IncrementalExtractor: push after finalize");
  if (chunk.channel_count() == 0 && chunk.frames() == 0) return;
  if (chunk.channel_count() != channels_) {
    throw std::invalid_argument("IncrementalExtractor: channel count mismatch");
  }
  if (chunk.frames() == 0) return;
  if (chunk.sample_rate() != sample_rate_) {
    throw std::invalid_argument("IncrementalExtractor: sample rate mismatch");
  }
  // The band-pass writes straight into the open block; each block is
  // processed the moment its last sample is filtered.
  const std::size_t frames = chunk.frames();
  for (std::size_t first = 0; first < frames;) {
    const std::size_t take = std::min(block_len_ - block_fill_, frames - first);
    for (std::size_t c = 0; c < channels_; ++c) {
      filter_in_[c] = chunk.channel(c).samples().data() + first;
      filter_out_[c] = block_.data() + c * block_len_ + block_fill_;
    }
    bandpass_.process(filter_in_.data(), filter_out_.data(), take);
    block_fill_ += take;
    first += take;
    if (block_fill_ == block_len_) {
      process_block(block_len_);
      block_fill_ = 0;
    }
  }
  pushed_ += frames;
}

void IncrementalExtractor::process_block(std::size_t valid) {
  // Block RMS envelope across channels, for the trim.
  double acc = 0.0;
  for (std::size_t c = 0; c < channels_; ++c) {
    const audio::Sample* samples = block_.data() + c * block_len_;
    for (std::size_t i = 0; i < valid; ++i) acc += samples[i] * samples[i];
  }
  envelope_.push_back(
      std::sqrt(acc / static_cast<double>(std::max<std::size_t>(1, valid) * channels_)));

  if (orientation_on_) {
    accumulate_pairs(valid);
    accumulate_directivity(valid);
  }

  if (live_step_ != 0) {
    feed_liveness({block_.data(), valid});
    resampled_upto_.push_back(live_count_);
    live_cum_sum_.push_back(live_sum_);
    live_cum_sum_sq_.push_back(live_sum_sq_);
  }
}

void IncrementalExtractor::accumulate_pairs(std::size_t valid) {
  // Block STFT: the channels' zero-padded blocks, four per lane group.
  const audio::Sample* signals[kLanes] = {};
  for (std::size_t g = 0; g < channel_spectra_.size(); ++g) {
    const std::size_t count = std::min(kLanes, channels_ - g * kLanes);
    for (std::size_t l = 0; l < count; ++l) {
      signals[l] = block_.data() + (g * kLanes + l) * block_len_;
    }
    dsp::rfft_lanes_into({signals, count}, valid, block_fft_, channel_spectra_[g],
                         lane_scratch_);
  }

  // Pair GCC, four pairs per lane group: coherence partial sums of the raw
  // spectra (finalize forms |Σxy*|²/(Σ|x|²Σ|y|²) from the per-segment sums,
  // Welch-averaged over the selected blocks), then the PHAT cross spectrum
  // and its pruned inverse over the lag window.
  const auto& kernels = dsp::simd::kernels();
  const std::size_t window = 2 * static_cast<std::size_t>(max_lag_) + 1;
  const std::size_t rows = block_fft_ / 2 + 1;
  const std::size_t coh_stride = coherence_blocks_ * 4;
  const std::size_t coh_base = coherence_partials_.size();
  coherence_partials_.resize(coh_base + pair_count_ * coh_stride, 0.0);
  for (std::size_t first = 0; first < pair_count_; first += kLanes) {
    const std::size_t count = std::min(kLanes, pair_count_ - first);
    // A ragged group's spare lanes repeat a used pair; their results are
    // dropped.
    const dsp::LaneSpectrum* x_from[kLanes] = {};
    const dsp::LaneSpectrum* y_from[kLanes] = {};
    std::size_t x_lane[kLanes] = {}, y_lane[kLanes] = {};
    for (std::size_t l = 0; l < count; ++l) {
      const auto [i, j] = pairs_[first + l];
      x_from[l] = &channel_spectra_[i / kLanes];
      x_lane[l] = i % kLanes;
      y_from[l] = &channel_spectra_[j / kLanes];
      y_lane[l] = j % kLanes;
    }
    const dsp::LaneSelection x = dsp::select_lanes(x_from, x_lane, pair_x_);
    const dsp::LaneSelection y = dsp::select_lanes(y_from, y_lane, pair_y_);
    kernels.coherence_lanes(x.re, x.im, x.order, y.re, y.im, y.order, rows,
                            kCoherenceStride, kCoherenceBlock, coherence_blocks_,
                            coherence_sums_.data());
    for (std::size_t l = 0; l < count; ++l) {
      double* acc = coherence_partials_.data() + coh_base + (first + l) * coh_stride;
      for (std::size_t i = 0; i < coh_stride; ++i) acc[i] += coherence_sums_[i * kLanes + l];
    }
    kernels.phat_lanes(x.re, x.im, x.order, y.re, y.im, y.order, cross_.re.data(),
                       cross_.im.data(), rows, kPhatEpsilon);
    dsp::irfft_lanes_window_into(cross_, max_lag_, lag_windows_, lane_scratch_);
    gcc_blocks_.insert(gcc_blocks_.end(), lag_windows_.begin(),
                       lag_windows_.begin() + static_cast<std::ptrdiff_t>(count * window));
  }
}

void IncrementalExtractor::accumulate_directivity(std::size_t valid) {
  // Mixdown, channel by channel into the decimator's input (its taps carry
  // the 1/channels of the average).
  const auto& accumulate = dsp::simd::kernels().accumulate;
  double* mix = decimator_.append(valid);
  std::copy_n(block_.data(), valid, mix);
  for (std::size_t c = 1; c < channels_; ++c) {
    accumulate(mix, block_.data() + c * block_len_, valid);
  }
  // Every decimated sample the block completes goes into the ring.
  const std::size_t mask = dir_fft_ - 1;
  for (std::size_t ready = decimator_.ready(); ready > 0;) {
    const std::size_t at = decimated_ & mask;
    const std::size_t take = std::min(ready, dir_fft_ - at);
    decimator_.emit(dir_ring_.data() + at, take);
    decimated_ += take;
    ready -= take;
  }
  // The truncated spectrum of the window, which holds the last
  // min(decimated_, dir_fft_) samples, oldest first; only the bins the
  // HLBR/banded features read are unpacked and stored per block.
  const std::size_t oldest = decimated_ > dir_fft_ ? decimated_ & mask : 0;
  const std::size_t held = std::min(decimated_, dir_fft_);
  const std::span<const audio::Sample> ring(dir_ring_);
  const std::size_t base = dir_blocks_.size();
  dir_blocks_.resize(base + dir_bins_);
  dsp::rfft_magnitudes_head(ring.subspan(oldest, held - oldest), ring.first(oldest),
                            dir_fft_, dir_bins_, dir_blocks_.data() + base, lane_scratch_);
}

void IncrementalExtractor::feed_liveness(std::span<const audio::Sample> samples) {
  std::span<const audio::Sample> emitted = samples;
  if (live_step_ > 1) {
    // Stateful anti-alias cascade, then phase-0 sample keeping
    // (out[m] = filtered[m*step]), a strided walk from the block's first
    // phase-0 sample.
    const std::size_t n = samples.size();
    const audio::Sample* in = samples.data();
    audio::Sample* out = live_filtered_.data();
    antialias_.process(&in, &out, n);
    std::size_t kept = 0;
    for (std::size_t i = (live_step_ - decimate_phase_) % live_step_; i < n;
         i += live_step_) {
      live_emitted_[kept++] = live_filtered_[i];
    }
    decimate_phase_ = (decimate_phase_ + n) % live_step_;
    emitted = std::span<const audio::Sample>(live_emitted_).first(kept);
  }
  for (const double x : emitted) {
    live_sum_ += x;
    live_sum_sq_ += x * x;
  }
  live_count_ += emitted.size();
  live_stft_.push(0, emitted);
  drain_liveness_frames();
}

void IncrementalExtractor::drain_liveness_frames() {
  dsp::RollingStftFrame frame;
  while (live_stft_.pop(frame)) {
    const auto& bins = frame.spectra[0].bins;
    live_spectra_.insert(live_spectra_.end(), bins.begin(), bins.end());
    live_valid_.push_back(frame.valid);
  }
}

void IncrementalExtractor::finalize_shared() {
  if (finalized_) return;
  if (!open_) throw std::logic_error("IncrementalExtractor: finalize before begin");
  // The trailing partial block, zero-padded by the transforms.
  if (block_fill_ > 0) {
    process_block(block_fill_);
    block_fill_ = 0;
  }
  if (live_step_ != 0) {
    live_stft_.finish();
    drain_liveness_frames();
  }
  select_active_blocks();
  finalized_ = true;
}

void IncrementalExtractor::select_active_blocks() {
  // The PreprocessConfig trim rules on the per-block envelope: relative
  // threshold, silence floor, minimum span, and padding.
  const std::size_t blocks = envelope_.size();
  active_begin_ = 0;
  active_end_ = blocks;
  if (blocks == 0 || config_.preprocess.trim_threshold_db <= -120.0) return;
  const double peak = *std::max_element(envelope_.begin(), envelope_.end());
  if (peak <= audio::db_to_amplitude(config_.preprocess.silence_floor_db)) return;
  const double threshold =
      peak * audio::db_to_amplitude(config_.preprocess.trim_threshold_db);
  std::size_t first = blocks, last = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    if (envelope_[b] >= threshold) {
      first = std::min(first, b);
      last = b;
    }
  }
  if (first > last) return;
  const auto min_active_samples = static_cast<std::size_t>(
      config_.preprocess.min_active_ms * sample_rate_ / 1000.0);
  if ((last - first + 1) * block_len_ < min_active_samples) return;
  const auto pad_samples = static_cast<std::size_t>(
      config_.preprocess.trim_pad_ms * sample_rate_ / 1000.0);
  const std::size_t pad_blocks = (pad_samples + block_len_ - 1) / block_len_;
  active_begin_ = first > pad_blocks ? first - pad_blocks : 0;
  active_end_ = std::min(blocks, last + 1 + pad_blocks);
}

ml::FeatureVector IncrementalExtractor::finalize_orientation() {
  finalize_shared();
  if (channels_ < 2) {
    throw std::invalid_argument("IncrementalExtractor: need >= 2 channels");
  }
  if (!orientation_on_) {
    throw std::logic_error("IncrementalExtractor: orientation stage disabled");
  }
  const std::size_t window = 2 * static_cast<std::size_t>(max_lag_) + 1;
  const std::size_t count = active_end_ - active_begin_;

  // Mean lag window per pair over the selected blocks, then the segment
  // coherence from the summed cross/power partials. A segment with no
  // selected blocks carries no pairwise evidence: its coherence reads 0,
  // so with a floor set every pair prunes to the neutral zero window.
  pair_gcc_.assign(pair_count_ * window, 0.0);
  pair_pruned_.assign(pair_count_, 0);
  const std::size_t coh_stride = coherence_blocks_ * 4;
  for (std::size_t p = 0; p < pair_count_; ++p) {
    double* values = pair_gcc_.data() + p * window;
    for (std::size_t b = active_begin_; b < active_end_; ++b) {
      const double* src = gcc_blocks_.data() + (b * pair_count_ + p) * window;
      for (std::size_t k = 0; k < window; ++k) values[k] += src[k];
    }
    if (count > 0) {
      const double inv = 1.0 / static_cast<double>(count);
      for (std::size_t k = 0; k < window; ++k) values[k] *= inv;
    }
    if (config_.orientation.coherence_floor > 0.0) {
      double total = 0.0;
      std::size_t cblocks = 0;
      if (count > 0) {
        for (std::size_t cb = 0; cb < coherence_blocks_; ++cb) {
          double cr = 0.0, ci = 0.0, px = 0.0, py = 0.0;
          for (std::size_t b = active_begin_; b < active_end_; ++b) {
            const double* acc =
                coherence_partials_.data() + b * pair_count_ * coh_stride + p * coh_stride + cb * 4;
            cr += acc[0];
            ci += acc[1];
            px += acc[2];
            py += acc[3];
          }
          total += (cr * cr + ci * ci) / (px * py + 1e-300);
          ++cblocks;
        }
      }
      const double coherence =
          count == 0 ? 0.0
                     : (cblocks > 0 ? total / static_cast<double>(cblocks) : 1.0);
      if (coherence < config_.orientation.coherence_floor) {
        pair_pruned_[p] = 1;
        std::fill(values, values + window, 0.0);
        pruned_counter().increment();
      }
    }
  }

  srp_.assign(window, 0.0);
  const auto& accumulate = dsp::simd::kernels().accumulate;
  for (std::size_t p = 0; p < pair_count_; ++p) {
    if (pair_pruned_[p]) continue;
    accumulate(srp_.data(), pair_gcc_.data() + p * window, window);
  }

  ml::FeatureVector features;
  const auto peaks = dsp::top_peaks(srp_, config_.orientation.srp_peaks);
  features.insert(features.end(), peaks.begin(), peaks.end());
  const auto srp_stats = dsp::summary_statistics(srp_);
  features.insert(features.end(), srp_stats.begin(), srp_stats.end());

  features.insert(features.end(), pair_gcc_.begin(), pair_gcc_.end());
  for (std::size_t p = 0; p < pair_count_; ++p) {
    features.push_back(static_cast<double>(pair_tdoa(p)));
  }
  for (std::size_t p = 0; p < pair_count_; ++p) {
    const auto stats = dsp::summary_statistics(pair_gcc(p));
    features.insert(features.end(), stats.begin(), stats.end());
  }

  // Directivity from the mean of the per-block sliding-window spectra,
  // normalized to the speech-band mean level; the bins sit at the
  // decimated rate.
  std::vector<double> magnitude(dir_fft_ / 2 + 1, 0.0);
  if (count > 0) {
    for (std::size_t b = active_begin_; b < active_end_; ++b) {
      const double* src = dir_blocks_.data() + b * dir_bins_;
      for (std::size_t k = 0; k < dir_bins_; ++k) magnitude[k] += src[k];
    }
    const double inv = 1.0 / static_cast<double>(count);
    for (std::size_t k = 0; k < dir_bins_; ++k) magnitude[k] *= inv;
  }
  const double reference =
      dsp::band_mean_magnitude(magnitude, dir_fft_, dir_rate_,
                               config_.orientation.low_band_lo,
                               config_.orientation.high_band_hi);
  if (reference > 0.0) {
    for (auto& m : magnitude) m /= reference;
  }
  features.push_back(dsp::high_low_band_ratio(
      magnitude, dir_fft_, dir_rate_, config_.orientation.low_band_lo,
      config_.orientation.low_band_hi, config_.orientation.high_band_lo,
      config_.orientation.high_band_hi));
  const auto banded = dsp::banded_statistics(
      magnitude, dir_fft_, dir_rate_, config_.orientation.low_band_lo,
      config_.orientation.low_band_hi, config_.orientation.low_band_chunks);
  features.insert(features.end(), banded.begin(), banded.end());

  return features;
}

std::span<const double> IncrementalExtractor::pair_gcc(std::size_t pair) const {
  const std::size_t window = 2 * static_cast<std::size_t>(max_lag_) + 1;
  if ((pair + 1) * window > pair_gcc_.size()) {
    throw std::out_of_range("IncrementalExtractor: no finalized GCC window for pair");
  }
  return std::span<const double>(pair_gcc_).subspan(pair * window, window);
}

bool IncrementalExtractor::pair_pruned(std::size_t pair) const {
  return pair_pruned_.at(pair) != 0;
}

int IncrementalExtractor::pair_tdoa(std::size_t pair) const {
  return pair_pruned(pair) ? 0 : window_peak_lag(pair_gcc(pair), max_lag_);
}

ml::FeatureVector IncrementalExtractor::finalize_liveness() {
  finalize_shared();
  if (live_step_ == 0) {
    throw std::logic_error("IncrementalExtractor: liveness stage disabled");
  }
  const std::size_t bins = live_bins_;
  std::vector<double> mean_mag(bins, 0.0);

  const std::size_t b0 = active_begin_, b1 = active_end_;
  const std::size_t r0 = b0 == 0 ? 0 : resampled_upto_[b0 - 1];
  const std::size_t r1 = b1 == 0 ? 0 : resampled_upto_[b1 - 1];
  const std::size_t total = live_count_;
  const std::size_t n = r1 - r0;
  const double sum =
      (b1 ? live_cum_sum_[b1 - 1] : 0.0) - (b0 ? live_cum_sum_[b0 - 1] : 0.0);
  const double sum_sq =
      (b1 ? live_cum_sum_sq_[b1 - 1] : 0.0) - (b0 ? live_cum_sum_sq_[b0 - 1] : 0.0);

  if (n > 0) {
    const double mu = sum / static_cast<double>(n);
    const double var = sum_sq / static_cast<double>(n) - mu * mu;
    // var <= 0 keeps the zero spectrum, as normalizing a constant signal
    // to zero mean / unit variance zeroes it.
    if (var > 0.0) {
      const double inv_sigma = 1.0 / std::sqrt(var);
      const std::size_t frame = live_stft_.frame_size();
      const std::size_t hop = live_stft_.hop_size();
      // Frames fully inside the trimmed span; the zero-padded tail frames
      // only count when the span runs to the stream end (where framing the
      // span alone would have produced them too).
      std::vector<std::size_t> selected;
      for (std::size_t f = 0; f < live_valid_.size(); ++f) {
        const std::size_t start = f * hop;
        if (start >= r0 && start < r1 && (start + frame <= r1 || r1 == total)) {
          selected.push_back(f);
        }
      }
      if (selected.empty()) {
        for (std::size_t f = 0; f < live_valid_.size(); ++f) selected.push_back(f);
      }
      if (!selected.empty()) {
        for (const std::size_t f : selected) {
          const dsp::Complex* spec = live_spectra_.data() + f * bins;
          // Mean removal by linearity: FFT(w·(x−mu)) = FFT(w·x) − mu·W,
          // where W is the window's own spectrum (truncated for padded
          // tail frames, whose valid region is shorter than the window).
          dsp::HalfSpectrum truncated;
          const dsp::HalfSpectrum* w = &live_window_spectrum_;
          if (live_valid_[f] < frame) {
            const auto& coeffs =
                dsp::shared_window(dsp::WindowType::kHann, frame);
            const std::vector<audio::Sample> head(
                coeffs.begin(),
                coeffs.begin() + static_cast<std::ptrdiff_t>(live_valid_[f]));
            truncated = dsp::rfft_half(head, live_stft_.fft_size());
            w = &truncated;
          }
          for (std::size_t k = 0; k < bins; ++k) {
            const double re = spec[k].real() - mu * w->bins[k].real();
            const double im = spec[k].imag() - mu * w->bins[k].imag();
            mean_mag[k] += std::sqrt(re * re + im * im) * inv_sigma;
          }
        }
        const double inv = 1.0 / static_cast<double>(selected.size());
        for (auto& m : mean_mag) m *= inv;
      }
    }
  }

  ml::FeatureVector features;
  liveness_features_from(mean_mag, live_stft_.fft_size(), features);
  return features;
}

void IncrementalExtractor::liveness_features_from(std::span<const double> mean_magnitude,
                                                  std::size_t fft_size,
                                                  ml::FeatureVector& out) const {
  const double fs = config_.liveness.model_sample_rate;
  out.reserve(config_.liveness.log_bands + 6);
  const auto bands =
      dsp::log_band_energies(mean_magnitude, fft_size, fs, config_.liveness.band_lo,
                             config_.liveness.band_hi, config_.liveness.log_bands);
  out.insert(out.end(), bands.begin(), bands.end());
  out.push_back(dsp::spectral_slope_db_per_khz(mean_magnitude, fft_size, fs, 2000.0, 7900.0));
  out.push_back(dsp::spectral_slope_db_per_khz(mean_magnitude, fft_size, fs, 500.0, 4000.0));
  out.push_back(dsp::spectral_centroid(mean_magnitude, fft_size, fs));
  out.push_back(dsp::spectral_flatness(mean_magnitude, fft_size, fs, 4000.0, 7900.0));
  out.push_back(dsp::spectral_rolloff(mean_magnitude, fft_size, fs, 0.95));
  const double low = dsp::band_energy(mean_magnitude, fft_size, fs, 100.0, 4000.0);
  const double high = dsp::band_energy(mean_magnitude, fft_size, fs, 4000.0, 7900.0);
  out.push_back(low > 0.0 ? high / low : 0.0);
}

}  // namespace headtalk::core
