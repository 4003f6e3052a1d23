#include "dsp/fft.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "dsp/fft_plan.h"
#include "dsp/simd/dispatch.h"

namespace headtalk::dsp {
namespace {

bool is_pow2(std::size_t n) noexcept { return n != 0 && (n & (n - 1)) == 0; }

// Interior bins k in [1, half) of the real-FFT unpack read packed slots k
// and half - k (simd::Kernels::rfft_unpack); the two edge bins, k = 0 and
// k = half, both read slot 0. Returns edge bin k from the packed slot z0
// and pack twiddle w[k].
Complex rfft_edge_bin(Complex z0, Complex w) noexcept {
  const Complex zr = std::conj(z0);
  const Complex even = 0.5 * (z0 + zr);
  const Complex odd = Complex(0.0, -0.5) * (z0 - zr);
  return even + w * odd;
}

static_assert(simd::kFftLanes == 4, "LaneSelection::order holds one entry per lane");

}  // namespace

std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft(std::vector<Complex>& x) { FftPlanCache::global().get(x.size())->forward(x); }

void ifft(std::vector<Complex>& x) { FftPlanCache::global().get(x.size())->inverse(x); }

std::vector<Complex> rfft(std::span<const audio::Sample> x, std::size_t fft_size) {
  if (fft_size == 0) fft_size = next_pow2(x.size());
  if (!is_pow2(fft_size) || fft_size < x.size()) {
    throw std::invalid_argument("rfft: fft_size must be a power of two >= input size");
  }
  std::vector<Complex> spec(fft_size, Complex{});
  for (std::size_t i = 0; i < x.size(); ++i) spec[i] = Complex(x[i], 0.0);
  fft(spec);
  return spec;
}

std::vector<audio::Sample> irfft(std::vector<Complex> spectrum, std::size_t out_size) {
  ifft(spectrum);
  if (out_size == 0) out_size = spectrum.size();
  std::vector<audio::Sample> out(out_size);
  for (std::size_t i = 0; i < out_size && i < spectrum.size(); ++i) {
    out[i] = spectrum[i].real();
  }
  return out;
}

void HalfSpectrum::multiply(const HalfSpectrum& other) {
  if (other.fft_size != fft_size) {
    throw std::invalid_argument("HalfSpectrum::multiply: size mismatch");
  }
  for (std::size_t i = 0; i < bins.size(); ++i) bins[i] *= other.bins[i];
}

void HalfSpectrum::add_product(const HalfSpectrum& a, const HalfSpectrum& b) {
  if (a.fft_size != fft_size || b.fft_size != fft_size) {
    throw std::invalid_argument("HalfSpectrum::add_product: size mismatch");
  }
  for (std::size_t i = 0; i < bins.size(); ++i) bins[i] += a.bins[i] * b.bins[i];
}

void rfft_half_into(std::span<const audio::Sample> x, std::size_t fft_size,
                    HalfSpectrum& out, FftScratch& scratch) {
  if (fft_size == 0) fft_size = std::max<std::size_t>(2, next_pow2(x.size()));
  if (next_pow2(fft_size) != fft_size || fft_size < x.size() || fft_size < 2) {
    throw std::invalid_argument("rfft_half: fft_size must be a power of two >= max(2, input size)");
  }
  const std::size_t half = fft_size / 2;
  const auto plan = FftPlanCache::global().get(half);

  // Pack even samples into the real part, odd into the imaginary part.
  auto& z = scratch.packed;
  z.resize(half);  // every entry is written below
  for (std::size_t n = 0; n < half; ++n) {
    const double re = 2 * n < x.size() ? x[2 * n] : 0.0;
    const double im = 2 * n + 1 < x.size() ? x[2 * n + 1] : 0.0;
    z[n] = Complex(re, im);
  }
  plan->forward(z);

  out.fft_size = fft_size;
  out.bins.resize(half + 1);
  // Plan entry k for a packed transform of size `half` is exp(-i*pi*k/half)
  // = exp(-2*pi*i*k/fft_size), exactly the unpack rotation needed here.
  const auto w = plan->real_pack_twiddles();
  // Interior bins through the dispatched kernel; the k=0 and k=half edges
  // both fold onto z[0] and stay scalar.
  simd::kernels().rfft_unpack(reinterpret_cast<const double*>(z.data()),
                              reinterpret_cast<const double*>(w.data()),
                              reinterpret_cast<double*>(out.bins.data()), half);
  for (const std::size_t k : {std::size_t{0}, half}) out.bins[k] = rfft_edge_bin(z[0], w[k]);
}

void rfft_lanes_into(std::span<const audio::Sample* const> signals, std::size_t count,
                     std::size_t fft_size, LaneSpectrum& out, LaneScratch& scratch) {
  constexpr std::size_t kLanes = simd::kFftLanes;
  if (!is_pow2(fft_size) || fft_size < std::max<std::size_t>(2, count) ||
      signals.size() > kLanes) {
    throw std::invalid_argument(
        "rfft_lanes: fft_size must be a power of two >= max(2, count), <= 4 signals");
  }
  const std::size_t half = fft_size / 2;
  const auto plan = FftPlanCache::global().get(half);

  // Pack even samples into the real part and odd into the imaginary part
  // of each lane, scattering packed slot n to its bit-reversed row.
  scratch.re.resize(half * kLanes);
  scratch.im.resize(half * kLanes);
  const auto bit_reverse = plan->bit_reverse();
  const std::size_t pairs = std::min(half, count / 2);  // slots fully inside the signal
  for (std::size_t l = 0; l < kLanes; ++l) {
    double* re = scratch.re.data() + l;
    double* im = scratch.im.data() + l;
    std::size_t n = 0;
    if (l < signals.size()) {
      const audio::Sample* x = signals[l];
      for (; n < pairs; ++n) {
        const std::size_t row = std::size_t{bit_reverse[n]} * kLanes;
        re[row] = x[2 * n];
        im[row] = x[2 * n + 1];
      }
      if (n < half && 2 * n < count) {  // an odd count ends mid-slot
        const std::size_t row = std::size_t{bit_reverse[n]} * kLanes;
        re[row] = x[2 * n];
        im[row] = 0.0;
        ++n;
      }
    }
    for (; n < half; ++n) {
      const std::size_t row = std::size_t{bit_reverse[n]} * kLanes;
      re[row] = 0.0;
      im[row] = 0.0;
    }
  }
  plan->forward_lanes(scratch.re.data(), scratch.im.data());

  out.fft_size = fft_size;
  out.re.resize((half + 1) * kLanes);
  out.im.resize((half + 1) * kLanes);
  const auto w = plan->real_pack_twiddles();
  simd::kernels().rfft_unpack_lanes(scratch.re.data(), scratch.im.data(),
                                    reinterpret_cast<const double*>(w.data()),
                                    out.re.data(), out.im.data(), half);
  for (std::size_t l = 0; l < kLanes; ++l) {
    const Complex z0(scratch.re[l], scratch.im[l]);
    for (const std::size_t k : {std::size_t{0}, half}) {
      const Complex bin = rfft_edge_bin(z0, w[k]);
      out.re[k * kLanes + l] = bin.real();
      out.im[k * kLanes + l] = bin.imag();
    }
  }
}

HalfSpectrum rfft_half(std::span<const audio::Sample> x, std::size_t fft_size) {
  HalfSpectrum out;
  FftScratch scratch;
  rfft_half_into(x, fft_size, out, scratch);
  return out;
}

void irfft_half_into(const HalfSpectrum& spectrum, std::size_t out_size,
                     std::vector<audio::Sample>& out, FftScratch& scratch) {
  const std::size_t n = spectrum.fft_size;
  const std::size_t half = n / 2;
  if (n < 2 || !is_pow2(n) || spectrum.bins.size() != half + 1) {
    throw std::invalid_argument("irfft_half: malformed spectrum");
  }
  if (out_size == 0) out_size = n;

  // Repack the one-sided spectrum into the half-size complex transform.
  const auto plan = FftPlanCache::global().get(half);
  const auto w = plan->real_pack_twiddles();
  auto& z = scratch.packed;
  z.resize(half);
  simd::kernels().irfft_repack(
      reinterpret_cast<const double*>(spectrum.bins.data()),
      reinterpret_cast<const double*>(w.data()),
      reinterpret_cast<double*>(z.data()), half);
  plan->inverse(z);

  out.assign(out_size, 0.0);
  for (std::size_t m = 0; m < out_size; ++m) {
    const std::size_t idx = m / 2;
    if (idx >= half) break;
    out[m] = (m % 2 == 0) ? z[idx].real() : z[idx].imag();
  }
}

std::vector<audio::Sample> irfft_half(const HalfSpectrum& spectrum, std::size_t out_size) {
  std::vector<audio::Sample> out;
  FftScratch scratch;
  irfft_half_into(spectrum, out_size, out, scratch);
  return out;
}

void irfft_half_window_into(const HalfSpectrum& spectrum, int max_lag,
                            std::vector<double>& out, FftScratch& scratch) {
  const std::size_t n = spectrum.fft_size;
  const std::size_t half = n / 2;
  if (n < 2 || !is_pow2(n) || spectrum.bins.size() != half + 1) {
    throw std::invalid_argument("irfft_half_window: malformed spectrum");
  }
  if (max_lag < 0) throw std::invalid_argument("irfft_half_window: max_lag must be >= 0");
  const std::size_t lag = static_cast<std::size_t>(max_lag);
  const std::size_t window = 2 * lag + 1;
  if (n < window) {
    throw std::invalid_argument(
        "irfft_half_window: fft_size must be >= 2*max_lag + 1");
  }

  const auto plan = FftPlanCache::global().get(half);
  const auto w = plan->real_pack_twiddles();
  auto& z = scratch.packed;
  z.resize(half);
  simd::kernels().irfft_repack(
      reinterpret_cast<const double*>(spectrum.bins.data()),
      reinterpret_cast<const double*>(w.data()),
      reinterpret_cast<double*>(z.data()), half);

  // Window sample m lives in packed slot m/2 (even samples in the real
  // part, odd in the imaginary part), so the ±max_lag window needs only the
  // first lag/2+1 and last (lag+1)/2 slots of the inverse — the pruned
  // transform computes exactly those, bit-identical to a full inverse.
  const std::size_t front = lag / 2 + 1;
  const std::size_t tail = std::max<std::size_t>(1, (lag + 1) / 2);
  if (front + tail > half) {
    plan->inverse(z);
  } else {
    plan->inverse_pruned(z, front, tail);
  }

  out.resize(window);
  for (int l = -max_lag; l <= max_lag; ++l) {
    const std::size_t m =
        l >= 0 ? static_cast<std::size_t>(l) : n - static_cast<std::size_t>(-l);
    const std::size_t idx = m / 2;
    out[static_cast<std::size_t>(l + max_lag)] =
        (m % 2 == 0) ? z[idx].real() : z[idx].imag();
  }
}

void irfft_lanes_window_into(const LaneSpectrum& spectrum, int max_lag,
                             std::vector<double>& out, LaneScratch& scratch) {
  constexpr std::size_t kLanes = simd::kFftLanes;
  const std::size_t n = spectrum.fft_size;
  const std::size_t half = n / 2;
  if (n < 2 || !is_pow2(n) || spectrum.re.size() != (half + 1) * kLanes ||
      spectrum.im.size() != spectrum.re.size()) {
    throw std::invalid_argument("irfft_lanes_window: malformed spectrum");
  }
  if (max_lag < 0) throw std::invalid_argument("irfft_lanes_window: max_lag must be >= 0");
  const std::size_t lag = static_cast<std::size_t>(max_lag);
  const std::size_t window = 2 * lag + 1;
  if (n < window) {
    throw std::invalid_argument(
        "irfft_lanes_window: fft_size must be >= 2*max_lag + 1");
  }

  const auto plan = FftPlanCache::global().get(half);
  const auto w = plan->real_pack_twiddles();
  scratch.re.resize(half * kLanes);
  scratch.im.resize(half * kLanes);
  simd::kernels().irfft_repack_lanes(spectrum.re.data(), spectrum.im.data(),
                                     reinterpret_cast<const double*>(w.data()),
                                     plan->bit_reverse().data(), scratch.re.data(),
                                     scratch.im.data(), half);
  // The same front/tail slots as irfft_half_window_into.
  const std::size_t front = lag / 2 + 1;
  const std::size_t tail = std::max<std::size_t>(1, (lag + 1) / 2);
  plan->inverse_pruned_lanes(scratch.re.data(), scratch.im.data(), front, tail);

  out.resize(kLanes * window);
  for (int l = -max_lag; l <= max_lag; ++l) {
    const std::size_t m =
        l >= 0 ? static_cast<std::size_t>(l) : n - static_cast<std::size_t>(-l);
    const auto& part = m % 2 == 0 ? scratch.re : scratch.im;
    const double* row = part.data() + (m / 2) * kLanes;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      out[lane * window + static_cast<std::size_t>(l + max_lag)] = row[lane];
    }
  }
}

LaneSelection select_lanes(const LaneSpectrum* const* from, const std::size_t* from_lane,
                           LaneSpectrum& scratch) {
  constexpr std::size_t kLanes = simd::kFftLanes;
  const LaneSpectrum* source = nullptr;
  std::size_t spare = 0;
  bool shared = true;
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (from[l] == nullptr) continue;
    if (source == nullptr) {
      source = from[l];
      spare = from_lane[l];
    }
    shared = shared && from[l] == source;
  }
  if (source == nullptr) throw std::invalid_argument("select_lanes: no lane selected");
  LaneSelection out;
  if (shared) {
    out.re = source->re.data();
    out.im = source->im.data();
    for (std::size_t l = 0; l < kLanes; ++l) {
      out.order[l] = static_cast<std::uint32_t>(from[l] != nullptr ? from_lane[l] : spare);
    }
    return out;
  }
  const std::size_t rows = source->re.size() / kLanes;
  scratch.fft_size = source->fft_size;
  scratch.re.resize(rows * kLanes);
  scratch.im.resize(rows * kLanes);
  for (std::size_t k = 0; k < rows; ++k) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const LaneSpectrum& s = from[l] != nullptr ? *from[l] : *source;
      const std::size_t lane = from[l] != nullptr ? from_lane[l] : spare;
      scratch.re[k * kLanes + l] = s.re[k * kLanes + lane];
      scratch.im[k * kLanes + l] = s.im[k * kLanes + lane];
    }
  }
  out.re = scratch.re.data();
  out.im = scratch.im.data();
  return out;
}

void rfft_magnitudes_head(std::span<const audio::Sample> older,
                          std::span<const audio::Sample> newer, std::size_t fft_size,
                          std::size_t bins, double* out, LaneScratch& scratch) {
  const std::size_t held = older.size() + newer.size();
  if (!is_pow2(fft_size) || fft_size < 8 || fft_size < held || bins > fft_size / 2 + 1) {
    throw std::invalid_argument(
        "rfft_magnitudes_head: fft_size must be a power of two >= max(8, input), "
        "bins <= fft_size/2 + 1");
  }
  const std::size_t half = fft_size / 2;
  const auto plan = FftPlanCache::global().get(half);
  const std::size_t rows = half / simd::kFftLanes;
  const int shift = std::countr_zero(rows);
  auto slot = [rows, shift](std::size_t p) {
    return (p & (rows - 1)) * simd::kFftLanes + (p >> shift);
  };

  // Pack even samples into the real part and odd into the imaginary part,
  // each packed slot at its bit-reversed position of the quartered layout.
  auto& x = scratch.signal;
  x.resize(fft_size);
  std::copy(older.begin(), older.end(), x.begin());
  std::copy(newer.begin(), newer.end(), x.begin() + static_cast<std::ptrdiff_t>(older.size()));
  std::fill(x.begin() + static_cast<std::ptrdiff_t>(held), x.end(), 0.0);
  scratch.re.resize(half);
  scratch.im.resize(half);
  const auto bit_reverse = plan->bit_reverse();
  for (std::size_t n = 0; n < half; ++n) {
    const std::size_t s = slot(bit_reverse[n]);
    scratch.re[s] = x[2 * n];
    scratch.im[s] = x[2 * n + 1];
  }
  plan->forward_quartered(scratch.re.data(), scratch.im.data());

  // The unpack of rfft_half_into, bin by bin (the interior bins with the
  // simd::Kernels::rfft_unpack formula), and the magnitudes as
  // simd::Kernels::magnitudes takes them.
  const auto w = plan->real_pack_twiddles();
  const double* re = scratch.re.data();
  const double* im = scratch.im.data();
  auto magnitude = [](double r, double i) { return std::sqrt(r * r + i * i); };
  for (std::size_t k = 0; k < bins; ++k) {
    if (k == 0 || k == half) {
      const Complex bin = rfft_edge_bin(Complex(re[0], im[0]), w[k]);
      out[k] = magnitude(bin.real(), bin.imag());
      continue;
    }
    const std::size_t a = slot(k);
    const std::size_t b = slot(half - k);
    const double er = 0.5 * (re[a] + re[b]);
    const double ei = 0.5 * (im[a] - im[b]);
    const double odr = 0.5 * (im[a] + im[b]);
    const double odi = -0.5 * (re[a] - re[b]);
    const double wr = w[k].real();
    const double wi = w[k].imag();
    out[k] = magnitude(er + odr * wr - odi * wi, ei + odr * wi + odi * wr);
  }
}

void magnitude_spectrum_into(std::span<const audio::Sample> x, std::size_t fft_size,
                             std::vector<double>& out, FftScratch& scratch) {
  rfft_half_into(x, fft_size, scratch.half, scratch);
  out.resize(scratch.half.bins.size());
  // sqrt(re^2 + im^2) via the dispatched kernel — last-ulp different from
  // the previous std::abs (hypot) but ~6x faster and level-identical
  // (IEEE sqrt is correctly rounded on every dispatch level).
  simd::kernels().magnitudes(
      reinterpret_cast<const double*>(scratch.half.bins.data()), out.size(),
      out.data());
}

std::vector<double> magnitude_spectrum(std::span<const audio::Sample> x,
                                       std::size_t fft_size) {
  std::vector<double> mag;
  FftScratch scratch;
  magnitude_spectrum_into(x, fft_size, mag, scratch);
  return mag;
}

double bin_frequency(std::size_t k, std::size_t fft_size, double sample_rate) noexcept {
  return static_cast<double>(k) * sample_rate / static_cast<double>(fft_size);
}

}  // namespace headtalk::dsp
