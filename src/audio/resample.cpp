#include "audio/resample.h"

#include <cmath>
#include <numbers>

#include "dsp/biquad.h"
#include "dsp/fir.h"

namespace headtalk::audio {
namespace {

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  const double px = std::numbers::pi * x;
  return std::sin(px) / px;
}

}  // namespace

Buffer resample(const Buffer& input, double target_rate) {
  if (target_rate <= 0.0) throw std::invalid_argument("resample: bad target rate");
  const double source_rate = input.sample_rate();
  if (source_rate == target_rate || input.empty()) {
    Buffer out = input;
    return out;
  }

  // Fast path for integer decimation (the pipeline's 48 kHz -> 16 kHz hop):
  // a 10th-order Butterworth anti-alias filter (five biquad sections,
  // cutoff at 0.45x the target rate) followed by sample dropping is ~50x
  // cheaper than the general windowed-sinc interpolator below. Order 10
  // keeps content above the new Nyquist >= 30 dB down across the band the
  // liveness features read (see test_resample.cpp stopband test).
  const double factor = source_rate / target_rate;
  const double rounded = std::round(factor);
  if (factor > 1.0 && std::abs(factor - rounded) < 1e-9) {
    const auto step = static_cast<std::size_t>(rounded);
    auto antialias = dsp::butterworth_lowpass(10, 0.45 * target_rate, source_rate);
    Buffer filtered = antialias.filtered(input);
    Buffer out((input.size() + step - 1) / step, target_rate);
    for (std::size_t m = 0; m < out.size(); ++m) out[m] = filtered[m * step];
    return out;
  }

  const double ratio = target_rate / source_rate;
  // Normalized cut-off (1.0 == source Nyquist), slightly below the lower of
  // the two Nyquist frequencies to leave room for the transition band.
  const double cutoff = std::min(1.0, ratio) * 0.95;
  constexpr int kZeroCrossings = 16;  // kernel half-width, in kernel periods
  constexpr double kBeta = 8.0;

  const auto out_frames =
      static_cast<std::size_t>(std::ceil(static_cast<double>(input.size()) * ratio));
  Buffer out(out_frames, target_rate);

  // Kernel half-span measured in *source* samples.
  const double half_span = kZeroCrossings / cutoff;
  for (std::size_t m = 0; m < out_frames; ++m) {
    // Continuous-time source position of output sample m.
    const double t = static_cast<double>(m) / ratio;
    const auto first = static_cast<long>(std::ceil(t - half_span));
    const auto last = static_cast<long>(std::floor(t + half_span));
    double acc = 0.0;
    for (long k = std::max<long>(first, 0);
         k <= std::min<long>(last, static_cast<long>(input.size()) - 1); ++k) {
      const double u = t - static_cast<double>(k);  // source-sample offset
      const double w = dsp::kaiser_weight(u + half_span, 2.0 * half_span + 1.0, kBeta);
      acc += input[static_cast<std::size_t>(k)] * cutoff * sinc(cutoff * u) * w;
    }
    out[m] = acc;
  }
  return out;
}

void normalize_zero_mean_unit_variance(Buffer& x) {
  if (x.empty()) return;
  double mean = 0.0;
  for (Sample s : x.samples()) mean += s;
  mean /= static_cast<double>(x.size());
  double var = 0.0;
  for (Sample s : x.samples()) var += (s - mean) * (s - mean);
  var /= static_cast<double>(x.size());
  if (var <= 0.0) {
    for (auto& s : x.data()) s = 0.0;
    return;
  }
  const double inv_std = 1.0 / std::sqrt(var);
  for (auto& s : x.data()) s = (s - mean) * inv_std;
}

}  // namespace headtalk::audio
