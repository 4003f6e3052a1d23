#include "dsp/biquad.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>

#include "dsp/simd/dispatch.h"

namespace headtalk::dsp {

audio::Sample Biquad::process(audio::Sample x) noexcept {
  const double y = b0 * x + z1_;
  z1_ = b1 * x - a1 * y + z2_;
  z2_ = b2 * x - a2 * y;
  return y;
}

audio::Sample BiquadCascade::process(audio::Sample x) noexcept {
  for (auto& s : sections_) x = s.process(x);
  return x;
}

void BiquadCascade::reset() noexcept {
  for (auto& s : sections_) s.reset();
}

void BiquadCascade::process(std::span<audio::Sample> x) noexcept {
  for (auto& v : x) v = process(v);
}

audio::Buffer BiquadCascade::filtered(const audio::Buffer& x) {
  reset();
  audio::Buffer out = x;
  process(out.samples());
  return out;
}

double BiquadCascade::magnitude_response(double w) const {
  const std::complex<double> z = std::polar(1.0, -w);
  std::complex<double> h(1.0, 0.0);
  for (const auto& s : sections_) {
    const std::complex<double> num = s.b0 + s.b1 * z + s.b2 * z * z;
    const std::complex<double> den = 1.0 + s.a1 * z + s.a2 * z * z;
    h *= num / den;
  }
  return std::abs(h);
}

void MultichannelBiquadCascade::reset(const BiquadCascade& design,
                                      std::size_t channels) {
  coeffs_.clear();
  for (const Biquad& s : design.sections()) {
    coeffs_.insert(coeffs_.end(), {s.b0, s.b1, s.b2, s.a1, s.a2});
  }
  state_.assign(2 * design.section_count() * channels, 0.0);
  in_.assign(channels, nullptr);
  out_.assign(channels, nullptr);
}

void MultichannelBiquadCascade::restart() noexcept {
  std::fill(state_.begin(), state_.end(), 0.0);
}

void MultichannelBiquadCascade::process(const audio::MultiBuffer& chunk,
                                        std::size_t first, std::size_t frames,
                                        std::vector<audio::Sample>& out) {
  const std::size_t channels = in_.size();
  if (chunk.channel_count() != channels) {
    throw std::invalid_argument("MultichannelBiquadCascade: channel count mismatch");
  }
  if (first > chunk.frames() || frames > chunk.frames() - first) {
    throw std::invalid_argument("MultichannelBiquadCascade: range past the chunk");
  }
  out.resize(channels * frames);
  for (std::size_t c = 0; c < channels; ++c) {
    in_[c] = chunk.channel(c).samples().data() + first;
    out_[c] = out.data() + c * frames;
  }
  process(in_.data(), out_.data(), frames);
}

void MultichannelBiquadCascade::process(const audio::Sample* const* in,
                                        audio::Sample* const* out,
                                        std::size_t frames) noexcept {
  simd::kernels().biquad_cascade(coeffs_.data(), coeffs_.size() / 5, state_.data(),
                                 in_.size(), in, out, frames);
}

namespace {

void validate(int order, double cutoff_hz, double sample_rate) {
  if (order < 1) throw std::invalid_argument("butterworth: order must be >= 1");
  if (cutoff_hz <= 0.0 || cutoff_hz >= sample_rate / 2.0) {
    throw std::invalid_argument("butterworth: cutoff must lie in (0, Nyquist)");
  }
}

enum class Kind { kLowpass, kHighpass };

// RBJ cookbook second-order section for Butterworth pole pair with quality Q.
Biquad second_order(Kind kind, double cutoff_hz, double sample_rate, double q) {
  const double w0 = 2.0 * std::numbers::pi * cutoff_hz / sample_rate;
  const double cw = std::cos(w0);
  const double alpha = std::sin(w0) / (2.0 * q);
  const double a0 = 1.0 + alpha;
  Biquad s;
  if (kind == Kind::kLowpass) {
    s.b0 = (1.0 - cw) / 2.0 / a0;
    s.b1 = (1.0 - cw) / a0;
    s.b2 = s.b0;
  } else {
    s.b0 = (1.0 + cw) / 2.0 / a0;
    s.b1 = -(1.0 + cw) / a0;
    s.b2 = s.b0;
  }
  s.a1 = (-2.0 * cw) / a0;
  s.a2 = (1.0 - alpha) / a0;
  return s;
}

// First-order Butterworth section via the bilinear transform, expressed as a
// biquad with zeroed second-order terms.
Biquad first_order(Kind kind, double cutoff_hz, double sample_rate) {
  const double k = std::tan(std::numbers::pi * cutoff_hz / sample_rate);
  const double norm = 1.0 / (k + 1.0);
  Biquad s;
  if (kind == Kind::kLowpass) {
    s.b0 = k * norm;
    s.b1 = k * norm;
  } else {
    s.b0 = norm;
    s.b1 = -norm;
  }
  s.b2 = 0.0;
  s.a1 = (k - 1.0) * norm;
  s.a2 = 0.0;
  return s;
}

BiquadCascade design(Kind kind, int order, double cutoff_hz, double sample_rate) {
  validate(order, cutoff_hz, sample_rate);
  std::vector<Biquad> sections;
  const int pairs = order / 2;
  for (int k = 0; k < pairs; ++k) {
    // Butterworth pole pair k lies at angle psi = pi/2 - (2k+1)pi/(2N) from
    // the negative real axis, giving Q = 1 / (2 cos psi) = 1 / (2 sin theta).
    const double theta =
        std::numbers::pi * (2.0 * k + 1.0) / (2.0 * static_cast<double>(order));
    const double q = 1.0 / (2.0 * std::sin(theta));
    sections.push_back(second_order(kind, cutoff_hz, sample_rate, q));
  }
  if (order % 2 == 1) sections.push_back(first_order(kind, cutoff_hz, sample_rate));
  return BiquadCascade(std::move(sections));
}

}  // namespace

BiquadCascade butterworth_lowpass(int order, double cutoff_hz, double sample_rate) {
  return design(Kind::kLowpass, order, cutoff_hz, sample_rate);
}

BiquadCascade butterworth_highpass(int order, double cutoff_hz, double sample_rate) {
  return design(Kind::kHighpass, order, cutoff_hz, sample_rate);
}

BiquadCascade butterworth_bandpass(int order, double low_hz, double high_hz,
                                   double sample_rate) {
  if (low_hz >= high_hz) {
    throw std::invalid_argument("butterworth_bandpass: low_hz must be < high_hz");
  }
  validate(order, low_hz, sample_rate);
  validate(order, high_hz, sample_rate);
  std::vector<Biquad> all;
  auto append = [&all, order, sample_rate](Kind kind, double fc) {
    const int pairs = order / 2;
    for (int k = 0; k < pairs; ++k) {
      const double theta =
          std::numbers::pi * (2.0 * k + 1.0) / (2.0 * static_cast<double>(order));
      const double q = 1.0 / (2.0 * std::sin(theta));
      all.push_back(second_order(kind, fc, sample_rate, q));
    }
    if (order % 2 == 1) all.push_back(first_order(kind, fc, sample_rate));
  };
  append(Kind::kHighpass, low_hz);
  append(Kind::kLowpass, high_hz);
  return BiquadCascade(std::move(all));
}

}  // namespace headtalk::dsp
