// Frame-level voice activity detection on the reference channel.
//
// The always-listening threat model (§II) means the device — not the
// client — must find utterances inside a continuous stream before the
// liveness/orientation checks can run. This VAD is the first stage of that
// chain: fixed-length analysis frames are classified active/inactive from
// two cheap cues — short-time energy against an *adaptive* noise floor
// (asymmetric dB-domain tracking, so speech cannot drag the floor up but a
// quieting room is followed quickly) and spectral flatness (diffuse room
// noise is flat; speech is tonal even when it is not loud). A short
// hangover keeps weak utterance tails attached. Segmentation itself —
// onset confirmation, pre-roll, force-close — lives one layer up in
// stream::Endpointer; the VAD only labels frames.
//
// Not thread-safe: one Vad per stream, driven from one thread.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "audio/sample_buffer.h"
#include "dsp/fft.h"

namespace headtalk::stream {

struct VadConfig {
  /// Analysis frame length (also the endpointer's time base).
  double frame_ms = 20.0;
  /// Energy must clear the noise floor by this much to turn a frame active…
  double onset_snr_db = 8.0;
  /// …and stays active down to this margin (hysteresis).
  double offset_snr_db = 4.0;
  /// Absolute gate: frames below this dBFS are never active, whatever the
  /// floor estimate says.
  double min_energy_db = -70.0;
  /// Frames flatter than this (geometric/arithmetic spectral mean over the
  /// speech band) are noise-like even when loud. On a raw single-frame
  /// periodogram, white noise concentrates near exp(-gamma) ~ 0.56 (the
  /// bin powers are exponentially distributed), while voiced speech sits
  /// well under 0.2 — so the gate goes between them, not near 1.
  double flatness_max = 0.4;
  double flatness_low_hz = 150.0;
  double flatness_high_hz = 6000.0;
  /// Initial noise-floor estimate (dBFS) before any audio is seen.
  double noise_floor_init_db = -55.0;
  /// Asymmetric floor tracking (EMA coefficients per frame): rise slowly so
  /// speech cannot become the floor, fall fast so a quieting room is
  /// followed within a few frames.
  double noise_adapt_up = 0.02;
  double noise_adapt_down = 0.2;
  /// Extra damping on the up-adapt for frames loud enough to have fired an
  /// onset (energy >= floor + onset_snr_db) but rejected by the speech
  /// gates — at that level the energy is more likely speech leaking past
  /// the flatness test than a genuinely louder room, so the floor follows
  /// it at noise_adapt_up * this instead of full rate.
  double noise_adapt_up_speech_damping = 0.1;
  /// Raw-inactive frames still reported active after speech (tail hangover).
  std::size_t hangover_frames = 2;
};

/// One classified analysis frame. `index` counts frames from the start of
/// the stream; the diagnostic fields are what the decision was made from.
struct VadFrame {
  std::uint64_t index = 0;
  bool active = false;
  double energy_db = 0.0;
  double noise_floor_db = 0.0;
  /// Spectral flatness of the frame — only when it was actually measured.
  /// Frames far below the energy gate skip the flatness FFT; they report
  /// NaN here (check has_flatness()) instead of a fabricated value that
  /// metrics/log consumers would mistake for a measurement.
  double flatness = std::numeric_limits<double>::quiet_NaN();

  [[nodiscard]] bool has_flatness() const noexcept { return !std::isnan(flatness); }
};

class Vad {
 public:
  explicit Vad(VadConfig config = {}, double sample_rate = audio::kDefaultSampleRate);

  /// Feeds continuous reference-channel audio; returns the frames completed
  /// by this chunk (possibly none — a partial frame is carried over).
  std::vector<VadFrame> push(std::span<const audio::Sample> samples);
  /// Same, appending to a caller-owned vector (allocation-free once it has
  /// capacity).
  void push(std::span<const audio::Sample> samples, std::vector<VadFrame>& out);

  /// Forgets buffered samples and re-initializes the noise floor.
  void reset();

  [[nodiscard]] std::size_t frame_length() const noexcept { return frame_length_; }
  [[nodiscard]] double sample_rate() const noexcept { return sample_rate_; }
  [[nodiscard]] std::uint64_t frames_emitted() const noexcept { return next_index_; }
  [[nodiscard]] double noise_floor_db() const noexcept { return noise_floor_db_; }
  [[nodiscard]] const VadConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] VadFrame classify(std::span<const audio::Sample> frame);

  VadConfig config_;
  double sample_rate_;
  std::size_t frame_length_;
  std::size_t fft_size_;
  std::vector<audio::Sample> pending_;  ///< partial frame carried across push()es
  std::vector<double> magnitude_;
  dsp::FftScratch fft_scratch_;
  double noise_floor_db_;
  bool prev_active_ = false;   ///< hysteresis state (raw decision)
  std::size_t hangover_ = 0;   ///< raw-inactive frames still reported active
  std::uint64_t next_index_ = 0;
};

}  // namespace headtalk::stream
