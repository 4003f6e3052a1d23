#include "dsp/spectral.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.h"

namespace headtalk::dsp {

std::pair<std::size_t, std::size_t> bin_range(std::size_t bins, std::size_t fft_size,
                                              double sample_rate, double low_hz,
                                              double high_hz) {
  if (low_hz < 0.0 || high_hz <= low_hz) {
    throw std::invalid_argument("spectral: bad frequency range");
  }
  const double nyquist = sample_rate / 2.0;
  if (low_hz >= nyquist) {
    throw std::invalid_argument("spectral: low_hz at or above Nyquist");
  }
  const double hz_per_bin = sample_rate / static_cast<double>(fft_size);
  constexpr double kBinTolerance = 1e-9;  // fraction of a bin
  auto first = static_cast<std::size_t>(
      std::max(0.0, std::ceil(low_hz / hz_per_bin - kBinTolerance)));
  std::size_t last;
  if (high_hz > nyquist) {
    last = bins;
  } else {
    last = static_cast<std::size_t>(
        std::max(0.0, std::ceil(high_hz / hz_per_bin - kBinTolerance)));
  }
  first = std::min(first, bins);
  last = std::min(last, bins);
  return {first, last};
}

double band_mean_magnitude(std::span<const double> magnitude, std::size_t fft_size,
                           double sample_rate, double low_hz, double high_hz) {
  const auto [first, last] =
      bin_range(magnitude.size(), fft_size, sample_rate, low_hz, high_hz);
  if (first >= last) return 0.0;
  double acc = 0.0;
  for (std::size_t k = first; k < last; ++k) acc += magnitude[k];
  return acc / static_cast<double>(last - first);
}

double band_energy(std::span<const double> magnitude, std::size_t fft_size,
                   double sample_rate, double low_hz, double high_hz) {
  const auto [first, last] =
      bin_range(magnitude.size(), fft_size, sample_rate, low_hz, high_hz);
  double acc = 0.0;
  for (std::size_t k = first; k < last; ++k) acc += magnitude[k] * magnitude[k];
  return acc;
}

double high_low_band_ratio(std::span<const double> magnitude, std::size_t fft_size,
                           double sample_rate, double low_band_lo, double low_band_hi,
                           double high_band_lo, double high_band_hi) {
  const double low =
      band_mean_magnitude(magnitude, fft_size, sample_rate, low_band_lo, low_band_hi);
  const double high =
      band_mean_magnitude(magnitude, fft_size, sample_rate, high_band_lo, high_band_hi);
  return low > 0.0 ? high / low : 0.0;
}

std::vector<double> banded_statistics(std::span<const double> magnitude,
                                      std::size_t fft_size, double sample_rate,
                                      double low_hz, double high_hz,
                                      std::size_t chunks) {
  if (chunks == 0) throw std::invalid_argument("banded_statistics: chunks must be > 0");
  std::vector<double> out;
  out.reserve(3 * chunks);
  const double width = (high_hz - low_hz) / static_cast<double>(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const double lo = low_hz + width * static_cast<double>(c);
    const double hi = lo + width;
    const auto [first, last] = bin_range(magnitude.size(), fft_size, sample_rate, lo, hi);
    double m = 0.0, rms = 0.0, var = 0.0;
    const std::size_t n = last > first ? last - first : 0;
    if (n > 0) {
      for (std::size_t k = first; k < last; ++k) {
        m += magnitude[k];
        rms += magnitude[k] * magnitude[k];
      }
      m /= static_cast<double>(n);
      rms = std::sqrt(rms / static_cast<double>(n));
      for (std::size_t k = first; k < last; ++k) var += (magnitude[k] - m) * (magnitude[k] - m);
      var /= static_cast<double>(n);
    }
    out.push_back(m);
    out.push_back(rms);
    out.push_back(std::sqrt(var));
  }
  return out;
}

std::vector<double> log_band_energies(std::span<const double> magnitude,
                                      std::size_t fft_size, double sample_rate,
                                      double low_hz, double high_hz, std::size_t bands,
                                      double floor_db) {
  if (bands == 0) throw std::invalid_argument("log_band_energies: bands must be > 0");
  std::vector<double> energies(bands, 0.0);
  const double width = (high_hz - low_hz) / static_cast<double>(bands);
  double max_e = 0.0;
  for (std::size_t b = 0; b < bands; ++b) {
    const double lo = low_hz + width * static_cast<double>(b);
    energies[b] = band_energy(magnitude, fft_size, sample_rate, lo, lo + width);
    max_e = std::max(max_e, energies[b]);
  }
  const double floor = max_e * std::pow(10.0, -floor_db / 10.0);
  for (auto& e : energies) {
    e = 10.0 * std::log10(std::max(e, std::max(floor, 1e-300)));
  }
  return energies;
}

double spectral_centroid(std::span<const double> magnitude, std::size_t fft_size,
                         double sample_rate) {
  double num = 0.0, den = 0.0;
  for (std::size_t k = 0; k < magnitude.size(); ++k) {
    const double f = bin_frequency(k, fft_size, sample_rate);
    num += f * magnitude[k];
    den += magnitude[k];
  }
  return den > 0.0 ? num / den : 0.0;
}

double spectral_flatness(std::span<const double> magnitude, std::size_t fft_size,
                         double sample_rate, double low_hz, double high_hz) {
  const auto [first, last] =
      bin_range(magnitude.size(), fft_size, sample_rate, low_hz, high_hz);
  if (first >= last) return 0.0;
  double log_acc = 0.0, lin_acc = 0.0;
  const std::size_t n = last - first;
  for (std::size_t k = first; k < last; ++k) {
    const double p = std::max(magnitude[k] * magnitude[k], 1e-300);
    log_acc += std::log(p);
    lin_acc += p;
  }
  const double geo = std::exp(log_acc / static_cast<double>(n));
  const double arith = lin_acc / static_cast<double>(n);
  return arith > 0.0 ? geo / arith : 0.0;
}

double spectral_rolloff(std::span<const double> magnitude, std::size_t fft_size,
                        double sample_rate, double fraction) {
  double total = 0.0;
  for (double m : magnitude) total += m * m;
  if (total <= 0.0) return 0.0;
  double acc = 0.0;
  for (std::size_t k = 0; k < magnitude.size(); ++k) {
    acc += magnitude[k] * magnitude[k];
    if (acc >= fraction * total) return bin_frequency(k, fft_size, sample_rate);
  }
  return bin_frequency(magnitude.size() - 1, fft_size, sample_rate);
}

double spectral_slope_db_per_khz(std::span<const double> magnitude,
                                 std::size_t fft_size, double sample_rate,
                                 double low_hz, double high_hz) {
  const auto [first, last] =
      bin_range(magnitude.size(), fft_size, sample_rate, low_hz, high_hz);
  if (last - first < 2) return 0.0;
  // Least squares of y = 20*log10(|X|) against x = f in kHz.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  const auto n = static_cast<double>(last - first);
  for (std::size_t k = first; k < last; ++k) {
    const double x = bin_frequency(k, fft_size, sample_rate) / 1000.0;
    const double y = 20.0 * std::log10(std::max(magnitude[k], 1e-300));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denom = n * sxx - sx * sx;
  return denom != 0.0 ? (n * sxy - sx * sy) / denom : 0.0;
}

}  // namespace headtalk::dsp
