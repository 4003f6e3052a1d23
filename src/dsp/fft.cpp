#include "dsp/fft.h"

#include <algorithm>
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
template <class T>
std::complex<T> rfft_edge_bin(std::complex<T> z0, std::complex<T> w) noexcept {
  const std::complex<T> zr = std::conj(z0);
  const std::complex<T> even = T(0.5) * (z0 + zr);
  const std::complex<T> odd = std::complex<T>(T(0), T(-0.5)) * (z0 - zr);
  return even + w * odd;
}

// Lanes per spectrum row of rfft_lanes_into for `signals` signals: at
// least 4, so the stages across the parts run on rows of 4 or more lanes.
template <class T>
std::size_t lane_group_width(std::size_t signals) {
  return std::min(simd::kLanes<T>, std::max<std::size_t>(4, next_pow2(signals)));
}

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
  for (const std::size_t k : {std::size_t{0}, half}) {
    out.bins[k] = rfft_edge_bin<double>(z[0], w[k]);
  }
}

template <class T>
void rfft_lanes_into(std::span<const audio::Sample* const> signals, std::size_t count,
                     std::size_t fft_size, BasicLaneSpectrum<T>& out,
                     BasicLaneScratch<T>& scratch) {
  constexpr std::size_t kLanes = simd::kLanes<T>;
  if (!is_pow2(fft_size) || fft_size < std::max<std::size_t>(2, count) ||
      signals.size() > kLanes) {
    throw std::invalid_argument(
        "rfft_lanes: fft_size must be a power of two >= max(2, count), at most one "
        "signal per lane");
  }
  const std::size_t half = fft_size / 2;
  const auto plan = FftPlanCache::global().get(half);
  // Each signal as `parts` parts of `rows` rows when a row has room.
  std::size_t width = lane_group_width<T>(signals.size());
  std::size_t parts = kLanes / width;
  if (parts > half) {
    parts = 1;
    width = kLanes;
  }
  const std::size_t rows = half / parts;

  // Pack even samples into the real part and odd into the imaginary part
  // of each lane, each packed slot at its bit-reversed position.
  scratch.re.resize(half * kLanes);
  scratch.im.resize(half * kLanes);
  const auto& kernels = simd::kernels().lanes<T>();
  kernels.pack_lanes(signals.data(), signals.size(), count, plan->bit_reverse().data(), rows,
                     parts, scratch.re.data(), scratch.im.data());
  const T* z_re = scratch.re.data();
  const T* z_im = scratch.im.data();
  if (parts == 1) {
    plan->forward_lanes(scratch.re.data(), scratch.im.data());
  } else {
    scratch.natural_re.resize(half * width);
    scratch.natural_im.resize(half * width);
    plan->forward_parted(scratch.re.data(), scratch.im.data(), parts,
                         scratch.natural_re.data(), scratch.natural_im.data());
    z_re = scratch.natural_re.data();
    z_im = scratch.natural_im.data();
  }

  out.fft_size = fft_size;
  out.lanes = width;
  out.re.resize((half + 1) * width);
  out.im.resize((half + 1) * width);
  const auto w = plan->template pack_twiddles<T>();
  kernels.rfft_unpack_lanes(z_re, z_im, width, reinterpret_cast<const T*>(w.data()),
                            out.re.data(), out.im.data(), half, half);
  for (std::size_t l = 0; l < width; ++l) {
    const std::complex<T> z0(z_re[l], z_im[l]);
    for (const std::size_t k : {std::size_t{0}, half}) {
      const std::complex<T> bin = rfft_edge_bin(z0, w[k]);
      out.re[k * width + l] = bin.real();
      out.im[k * width + l] = bin.imag();
    }
  }
}

template void rfft_lanes_into<double>(std::span<const audio::Sample* const>, std::size_t,
                                      std::size_t, LaneSpectrum&, LaneScratch&);
template void rfft_lanes_into<float>(std::span<const audio::Sample* const>, std::size_t,
                                     std::size_t, LaneSpectrumF&, LaneScratchF&);

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

template <class T>
void irfft_lanes_window_into(const BasicLaneSpectrum<T>& spectrum, int max_lag,
                             std::vector<double>& out, BasicLaneScratch<T>& scratch) {
  constexpr std::size_t kLanes = simd::kLanes<T>;
  const std::size_t n = spectrum.fft_size;
  const std::size_t half = n / 2;
  if (n < 2 || !is_pow2(n) || spectrum.lanes != kLanes ||
      spectrum.re.size() != (half + 1) * kLanes || spectrum.im.size() != spectrum.re.size()) {
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
  const auto w = plan->template pack_twiddles<T>();
  scratch.re.resize(half * kLanes);
  scratch.im.resize(half * kLanes);
  simd::kernels().lanes<T>().irfft_repack_lanes(
      spectrum.re.data(), spectrum.im.data(), reinterpret_cast<const T*>(w.data()),
      plan->bit_reverse().data(), scratch.re.data(), scratch.im.data(), half);
  // The same front/tail slots as irfft_half_window_into.
  const std::size_t front = lag / 2 + 1;
  const std::size_t tail = std::max<std::size_t>(1, (lag + 1) / 2);
  plan->inverse_pruned_lanes(scratch.re.data(), scratch.im.data(), front, tail);

  out.resize(kLanes * window);
  for (int l = -max_lag; l <= max_lag; ++l) {
    const std::size_t m =
        l >= 0 ? static_cast<std::size_t>(l) : n - static_cast<std::size_t>(-l);
    const auto& part = m % 2 == 0 ? scratch.re : scratch.im;
    const T* row = part.data() + (m / 2) * kLanes;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      out[lane * window + static_cast<std::size_t>(l + max_lag)] = row[lane];
    }
  }
}

template void irfft_lanes_window_into<double>(const LaneSpectrum&, int, std::vector<double>&,
                                              LaneScratch&);
template void irfft_lanes_window_into<float>(const LaneSpectrumF&, int, std::vector<double>&,
                                             LaneScratchF&);

template <class T>
BasicLaneSelection<T> select_lanes(const BasicLaneSpectrum<T>* const* from,
                                   const std::size_t* from_lane,
                                   BasicLaneSpectrum<T>& scratch) {
  constexpr std::size_t kLanes = simd::kLanes<T>;
  const BasicLaneSpectrum<T>* source = nullptr;
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
  BasicLaneSelection<T> out;
  if (shared) {
    out.re = source->re.data();
    out.im = source->im.data();
    out.width = source->lanes;
    for (std::size_t l = 0; l < kLanes; ++l) {
      out.order[l] = static_cast<std::uint32_t>(from[l] != nullptr ? from_lane[l] : spare);
    }
    return out;
  }
  const std::size_t rows = source->re.size() / source->lanes;
  scratch.fft_size = source->fft_size;
  scratch.lanes = kLanes;
  scratch.re.resize(rows * kLanes);
  scratch.im.resize(rows * kLanes);
  for (std::size_t k = 0; k < rows; ++k) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const BasicLaneSpectrum<T>& s = from[l] != nullptr ? *from[l] : *source;
      const std::size_t lane = from[l] != nullptr ? from_lane[l] : spare;
      scratch.re[k * kLanes + l] = s.re[k * s.lanes + lane];
      scratch.im[k * kLanes + l] = s.im[k * s.lanes + lane];
    }
  }
  out.re = scratch.re.data();
  out.im = scratch.im.data();
  out.width = kLanes;
  for (std::size_t l = 0; l < kLanes; ++l) out.order[l] = static_cast<std::uint32_t>(l);
  return out;
}

template LaneSelection select_lanes<double>(const LaneSpectrum* const*, const std::size_t*,
                                            LaneSpectrum&);
template LaneSelectionF select_lanes<float>(const LaneSpectrumF* const*, const std::size_t*,
                                            LaneSpectrumF&);

template <class T>
void rfft_magnitudes_head(std::span<const audio::Sample> older,
                          std::span<const audio::Sample> newer, std::size_t fft_size,
                          std::size_t bins, double* out, BasicLaneScratch<T>& scratch) {
  constexpr std::size_t kLanes = simd::kLanes<T>;
  const std::size_t held = older.size() + newer.size();
  if (!is_pow2(fft_size) || fft_size < 8 || fft_size < held || bins > fft_size / 2 + 1) {
    throw std::invalid_argument(
        "rfft_magnitudes_head: fft_size must be a power of two >= max(8, input), "
        "bins <= fft_size/2 + 1");
  }
  const std::size_t half = fft_size / 2;
  const auto plan = FftPlanCache::global().get(half);
  // The one signal in lane 0 of each of `parts` parts (a row too wide for
  // the parts leaves the other lanes zero).
  const std::size_t parts = std::min(kLanes, half);
  const std::size_t width = kLanes / parts;
  const std::size_t rows = half / parts;

  // The ring's two runs in order, packed like rfft_lanes_into's signals
  // (the pack zero-pads past `held`).
  auto& x = scratch.signal;
  x.resize(held);
  std::copy(older.begin(), older.end(), x.begin());
  std::copy(newer.begin(), newer.end(), x.begin() + static_cast<std::ptrdiff_t>(older.size()));
  scratch.re.resize(half * kLanes);
  scratch.im.resize(half * kLanes);
  const auto& kernels = simd::kernels().lanes<T>();
  const audio::Sample* signal = x.data();
  kernels.pack_lanes(&signal, 1, held, plan->bit_reverse().data(), rows, parts,
                     scratch.re.data(), scratch.im.data());
  scratch.natural_re.resize(half * width);
  scratch.natural_im.resize(half * width);
  const T* z_re = scratch.natural_re.data();
  const T* z_im = scratch.natural_im.data();
  plan->forward_parted(scratch.re.data(), scratch.im.data(), parts, scratch.natural_re.data(),
                       scratch.natural_im.data());

  // The unpack of rfft_half_into on the requested bins, into the parted
  // buffers (free again), and the magnitudes as simd::Kernels::magnitudes
  // takes them.
  const auto w = plan->template pack_twiddles<T>();
  T* spec_re = scratch.re.data();
  T* spec_im = scratch.im.data();
  kernels.rfft_unpack_lanes(z_re, z_im, width, reinterpret_cast<const T*>(w.data()), spec_re,
                            spec_im, half, bins);
  auto magnitude = [](T r, T i) { return static_cast<double>(std::sqrt(r * r + i * i)); };
  for (std::size_t k = 0; k < bins; ++k) {
    if (k == 0 || k == half) {
      const std::complex<T> bin = rfft_edge_bin(std::complex<T>(z_re[0], z_im[0]), w[k]);
      out[k] = magnitude(bin.real(), bin.imag());
    } else {
      out[k] = magnitude(spec_re[k * width], spec_im[k * width]);
    }
  }
}

template void rfft_magnitudes_head<double>(std::span<const audio::Sample>,
                                           std::span<const audio::Sample>, std::size_t,
                                           std::size_t, double*, LaneScratch&);
template void rfft_magnitudes_head<float>(std::span<const audio::Sample>,
                                          std::span<const audio::Sample>, std::size_t,
                                          std::size_t, double*, LaneScratchF&);

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
