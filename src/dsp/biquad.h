// IIR biquad sections and Butterworth filter design.
//
// The preprocessing stage of HeadTalk (§III) applies a fifth-order
// Butterworth band-pass keeping 100 Hz – 16 kHz. We realise Butterworth
// low/high-pass of arbitrary order as a cascade of second-order sections
// (RBJ bilinear-transform forms), and band-pass as a high-pass/low-pass
// cascade, which is how such wideband "band-pass" filters are built in
// practice (the pass band spans more than 7 octaves).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "audio/sample_buffer.h"

namespace headtalk::dsp {

/// One direct-form-II-transposed second-order section.
/// Coefficients are normalized so a0 == 1.
struct Biquad {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;

  /// Processes one sample and updates the internal state.
  [[nodiscard]] audio::Sample process(audio::Sample x) noexcept;

  /// Clears the delay line.
  void reset() noexcept { z1_ = z2_ = 0.0; }

  /// Delay-line contents after the last process() call.
  [[nodiscard]] double z1() const noexcept { return z1_; }
  [[nodiscard]] double z2() const noexcept { return z2_; }

 private:
  double z1_ = 0.0, z2_ = 0.0;
};

/// A cascade of biquad sections applied in sequence.
class BiquadCascade {
 public:
  BiquadCascade() = default;
  explicit BiquadCascade(std::vector<Biquad> sections) : sections_(std::move(sections)) {}

  [[nodiscard]] std::size_t section_count() const noexcept { return sections_.size(); }
  [[nodiscard]] std::span<const Biquad> sections() const noexcept { return sections_; }

  [[nodiscard]] audio::Sample process(audio::Sample x) noexcept;
  void reset() noexcept;

  /// Filters a whole buffer (stateful; call reset() between signals).
  void process(std::span<audio::Sample> x) noexcept;

  /// Convenience: returns a filtered copy with filter state reset first.
  [[nodiscard]] audio::Buffer filtered(const audio::Buffer& x);

  /// Complex magnitude response at normalized angular frequency `w` (rad).
  [[nodiscard]] double magnitude_response(double w) const;

 private:
  std::vector<Biquad> sections_;
};

/// One cascade design run over every channel of a capture at once. The
/// channels share one coefficient table and each carries its own delay
/// lines; process() is one call of the dispatched
/// simd::Kernels::biquad_cascade, which packs channels into vector lanes
/// (one channel: its sections).
/// At every SIMD level each channel's output equals what its own copy of
/// the design's BiquadCascade::process would produce, bit for bit.
class MultichannelBiquadCascade {
 public:
  /// Takes `design`'s coefficients and zeroes `channels` delay lines.
  void reset(const BiquadCascade& design, std::size_t channels);

  /// Zeroes the delay lines for a new signal, keeping the coefficients and
  /// the channel count.
  void restart() noexcept;

  /// Filters frames [first, first + frames) of every channel of `chunk`,
  /// continuing the previous call's signal. `out` becomes channels ×
  /// frames samples, channel c at [c × frames, (c + 1) × frames); its
  /// capacity is reused. Throws std::invalid_argument on a channel-count
  /// mismatch or a range past the chunk's end.
  void process(const audio::MultiBuffer& chunk, std::size_t first, std::size_t frames,
               std::vector<audio::Sample>& out);

  /// Filters `frames` samples of every channel c from in[c] into out[c]
  /// (one pointer per channel), continuing the previous call's signal.
  void process(const audio::Sample* const* in, audio::Sample* const* out,
               std::size_t frames) noexcept;

 private:
  std::vector<double> coeffs_;  ///< [section][b0, b1, b2, a1, a2]
  std::vector<double> state_;   ///< [section][z1, z2][channel]
  std::vector<const audio::Sample*> in_;  ///< per-channel pointers of one call
  std::vector<audio::Sample*> out_;
};

/// Butterworth low-pass of the given order (>=1) with cut-off `cutoff_hz`.
[[nodiscard]] BiquadCascade butterworth_lowpass(int order, double cutoff_hz,
                                                double sample_rate);

/// Butterworth high-pass of the given order (>=1) with cut-off `cutoff_hz`.
[[nodiscard]] BiquadCascade butterworth_highpass(int order, double cutoff_hz,
                                                 double sample_rate);

/// Wideband Butterworth band-pass: high-pass at `low_hz` cascaded with
/// low-pass at `high_hz`, each of the given order.
[[nodiscard]] BiquadCascade butterworth_bandpass(int order, double low_hz,
                                                 double high_hz, double sample_rate);

}  // namespace headtalk::dsp
