#include "dsp/correlation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.h"

namespace headtalk::dsp {
namespace {

// Shared core: computes IFFT( W(f) * X(f) * conj(Y(f)) ) and extracts the
// symmetric lag window. `phat` selects phase-transform weighting.
void correlate_spectra_into(const HalfSpectrum& xs, const HalfSpectrum& ys,
                            int max_lag, bool phat, double epsilon,
                            CorrelationSequence& out, CorrelationWorkspace& ws) {
  if (max_lag < 0) throw std::invalid_argument("correlate: max_lag must be >= 0");
  if (xs.fft_size != ys.fft_size || xs.bins.size() != ys.bins.size()) {
    throw std::invalid_argument("correlate: fft-size mismatch");
  }
  const std::size_t n = xs.fft_size;
  const std::size_t window = 2 * static_cast<std::size_t>(max_lag) + 1;
  // Negative lags wrap to index n - |lag| of the circular correlation; a
  // transform shorter than the lag window would alias them into the
  // positive-lag region, corrupting the output silently.
  if (n < window) {
    throw std::invalid_argument(
        "correlate: fft_size must be >= 2*max_lag + 1 to cover the lag window");
  }
  // c = x * conj(y), PHAT-normalized by one reciprocal (zero when
  // |c| <= epsilon) as the operator's phat_lanes kernel does; the inverse
  // transform computes only the ±max_lag window.
  ws.cross.fft_size = n;
  ws.cross.bins.resize(xs.bins.size());
  for (std::size_t k = 0; k < xs.bins.size(); ++k) {
    const double xr = xs.bins[k].real(), xi = xs.bins[k].imag();
    const double yr = ys.bins[k].real(), yi = ys.bins[k].imag();
    const double cr = xr * yr + xi * yi;
    const double ci = xi * yr - xr * yi;
    Complex c(cr, ci);
    if (phat) {
      const double mag = std::sqrt(cr * cr + ci * ci);
      c = mag > epsilon ? Complex(cr * (1.0 / mag), ci * (1.0 / mag)) : Complex();
    }
    ws.cross.bins[k] = c;
  }
  out.max_lag = max_lag;
  irfft_half_window_into(ws.cross, max_lag, out.values, ws.fft);
}

CorrelationSequence correlate(std::span<const audio::Sample> x,
                              std::span<const audio::Sample> y, int max_lag,
                              bool phat, double epsilon) {
  if (max_lag < 0) throw std::invalid_argument("correlate: max_lag must be >= 0");
  if (x.empty() || y.empty()) {
    return CorrelationSequence{std::vector<double>(2 * max_lag + 1, 0.0), max_lag};
  }
  // The transform must cover both the linear-correlation padding and the
  // full lag window (short signals with a wide window need the latter).
  const std::size_t lag = static_cast<std::size_t>(max_lag);
  const std::size_t needed =
      std::max(std::max(x.size(), y.size()) + lag + 1, 2 * lag + 1);
  const std::size_t n = std::max<std::size_t>(2, next_pow2(needed));
  CorrelationSequence out;
  CorrelationWorkspace ws;
  correlate_spectra_into(rfft_half(x, n), rfft_half(y, n), max_lag, phat, epsilon,
                         out, ws);
  return out;
}

}  // namespace

int CorrelationSequence::peak_lag() const {
  if (values.empty()) return 0;
  const auto it = std::max_element(values.begin(), values.end());
  return static_cast<int>(std::distance(values.begin(), it)) - max_lag;
}

double CorrelationSequence::peak_value() const {
  if (values.empty()) return 0.0;
  return *std::max_element(values.begin(), values.end());
}

CorrelationSequence cross_correlation(std::span<const audio::Sample> x,
                                      std::span<const audio::Sample> y, int max_lag) {
  return correlate(x, y, max_lag, /*phat=*/false, 0.0);
}

CorrelationSequence gcc_phat(std::span<const audio::Sample> x,
                             std::span<const audio::Sample> y, int max_lag,
                             double epsilon) {
  return correlate(x, y, max_lag, /*phat=*/true, epsilon);
}

CorrelationSequence gcc_phat_from_spectra(const HalfSpectrum& x, const HalfSpectrum& y,
                                          int max_lag, double epsilon) {
  CorrelationSequence out;
  CorrelationWorkspace ws;
  gcc_phat_from_spectra_into(x, y, max_lag, out, ws, epsilon);
  return out;
}

void gcc_phat_from_spectra_into(const HalfSpectrum& x, const HalfSpectrum& y,
                                int max_lag, CorrelationSequence& out,
                                CorrelationWorkspace& workspace, double epsilon) {
  correlate_spectra_into(x, y, max_lag, /*phat=*/true, epsilon, out, workspace);
}

int tdoa_samples(std::span<const audio::Sample> x, std::span<const audio::Sample> y,
                 int max_lag) {
  return gcc_phat(x, y, max_lag).peak_lag();
}

}  // namespace headtalk::dsp
