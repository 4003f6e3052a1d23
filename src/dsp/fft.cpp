#include "dsp/fft.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "dsp/fft_plan.h"
#include "dsp/simd/dispatch.h"

namespace headtalk::dsp {
namespace {

bool is_pow2(std::size_t n) noexcept { return n != 0 && (n & (n - 1)) == 0; }

// Interior bins k in [1, half) of the real-FFT unpack read packed slots k
// and half - k (simd::LaneKernels::rfft_unpack_lanes); the two edge bins,
// k = 0 and k = half, both read slot 0. Returns edge bin k from the packed
// slot z0 and pack twiddle w[k].
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

/// The plan of a `size`-point packed transform: the scratch's last plan
/// when the size matches, otherwise a plan cache lookup it then keeps.
template <class T>
const FftPlan& scratch_plan(BasicLaneScratch<T>& scratch, std::size_t size) {
  if (scratch.plan == nullptr || scratch.plan->size() != size) {
    scratch.plan = FftPlanCache::global().get(size);
  }
  return *scratch.plan;
}

/// Rows of the lane layout: `width` lanes per row.
template <class T>
struct LaneRows {
  const T* re;
  const T* im;
  std::size_t width;
};

/// Packs `used` signals of `count` samples as `parts` parts of the packed
/// plan.size()-point transform (zero-padded) and runs it forward. Returns
/// the natural-order result: rows of kLanes<T> / parts lanes, in
/// scratch.re/im when parts == 1, else in scratch.natural_re/im.
template <class T>
LaneRows<T> forward_packed(const FftPlan& plan, const audio::Sample* const* signals,
                           std::size_t used, std::size_t count, std::size_t parts,
                           BasicLaneScratch<T>& scratch) {
  const std::size_t half = plan.size();
  const std::size_t width = simd::kLanes<T> / parts;
  // One row more than the pack fills: rfft_one unpacks its spectrum here.
  scratch.re.resize((half + 1) * width);
  scratch.im.resize((half + 1) * width);
  simd::kernels().lanes<T>().pack_lanes(signals, used, count, plan.bit_reverse().data(),
                                        half / parts, parts, scratch.re.data(),
                                        scratch.im.data());
  if (parts == 1) {
    plan.forward_lanes(scratch.re.data(), scratch.im.data());
    return {scratch.re.data(), scratch.im.data(), width};
  }
  scratch.natural_re.resize(half * width);
  scratch.natural_im.resize(half * width);
  plan.forward_parted(scratch.re.data(), scratch.im.data(), parts, scratch.natural_re.data(),
                      scratch.natural_im.data());
  return {scratch.natural_re.data(), scratch.natural_im.data(), width};
}

/// The real-FFT unpack of every lane of forward_packed's result z: spectrum
/// bins [0, bins), the edge bins included, into out (rows of z.width
/// lanes), which may not overlap z.
template <class T>
void unpack(const FftPlan& plan, LaneRows<T> z, std::size_t bins, T* out_re, T* out_im) {
  const std::size_t half = plan.size();
  const auto w = plan.template pack_twiddles<T>();
  simd::kernels().lanes<T>().rfft_unpack_lanes(z.re, z.im, z.width,
                                               reinterpret_cast<const T*>(w.data()), out_re,
                                               out_im, half, bins);
  for (std::size_t l = 0; l < z.width; ++l) {
    const std::complex<T> z0(z.re[l], z.im[l]);
    for (const std::size_t k : {std::size_t{0}, half}) {
      if (k >= bins) continue;
      const std::complex<T> bin = rfft_edge_bin(z0, w[k]);
      out_re[k * z.width + l] = bin.real();
      out_im[k * z.width + l] = bin.imag();
    }
  }
}

/// The forward body of the one-signal transforms: x = older ++ newer
/// zero-padded to fft_size (a power of two >= max(2, x.size())) as
/// min(kLanes<T>, fft_size/2) parts of one transform. Returns spectrum
/// bins [0, bins) in lane 0 of the rows.
template <class T>
LaneRows<T> rfft_one(std::span<const audio::Sample> older, std::span<const audio::Sample> newer,
                     std::size_t fft_size, std::size_t bins, BasicLaneScratch<T>& scratch) {
  const std::size_t half = fft_size / 2;
  const FftPlan& plan = scratch_plan(scratch, half);
  const std::size_t held = older.size() + newer.size();
  const audio::Sample* signal = older.empty() ? newer.data() : older.data();
  if (!older.empty() && !newer.empty()) {  // a ring's two runs, in order
    scratch.signal.resize(held);
    std::copy(older.begin(), older.end(), scratch.signal.begin());
    std::copy(newer.begin(), newer.end(),
              scratch.signal.begin() + static_cast<std::ptrdiff_t>(older.size()));
    signal = scratch.signal.data();
  }
  const std::size_t parts = std::min(simd::kLanes<T>, half);
  const LaneRows<T> z = forward_packed(plan, &signal, 1, held, parts, scratch);
  // Unpack into the buffers the result is not in.
  auto& out_re = parts > 1 ? scratch.re : scratch.natural_re;
  auto& out_im = parts > 1 ? scratch.im : scratch.natural_im;
  out_re.resize((half + 1) * z.width);
  out_im.resize((half + 1) * z.width);
  unpack(plan, z, bins, out_re.data(), out_im.data());
  return {out_re.data(), out_im.data(), z.width};
}

/// The inverse body of the real transforms: repacks spectra (rows of
/// kLanes<T> / parts lanes, bins 0 .. plan.size()) into `parts` parts and
/// runs the inverse pruned to packed slots [0, front) and
/// [size - tail, size), with the 1/size scaling. Returns those slots in
/// natural order, rows of kLanes<T> / parts lanes. The spectra may lie in
/// scratch.natural_re/im: they are read before those are written.
template <class T>
LaneRows<T> inverse_packed(const FftPlan& plan, const T* bins_re, const T* bins_im,
                           std::size_t parts, std::size_t front, std::size_t tail,
                           BasicLaneScratch<T>& scratch) {
  const std::size_t half = plan.size();
  const std::size_t width = simd::kLanes<T> / parts;
  const auto w = plan.template pack_twiddles<T>();
  scratch.re.resize(half * width);
  scratch.im.resize(half * width);
  simd::kernels().lanes<T>().irfft_repack_lanes(
      bins_re, bins_im, reinterpret_cast<const T*>(w.data()), plan.bit_reverse().data(),
      half / parts, parts, scratch.re.data(), scratch.im.data());
  if (parts == 1) {
    plan.inverse_pruned_lanes(scratch.re.data(), scratch.im.data(), front, tail);
    return {scratch.re.data(), scratch.im.data(), width};
  }
  scratch.natural_re.resize(half * width);
  scratch.natural_im.resize(half * width);
  plan.inverse_parted(scratch.re.data(), scratch.im.data(), parts, front, tail,
                      scratch.natural_re.data(), scratch.natural_im.data());
  return {scratch.natural_re.data(), scratch.natural_im.data(), width};
}

/// inverse_packed of one spectrum, as min(4, fft_size/2) float64 parts.
LaneRows<double> irfft_one(const HalfSpectrum& spectrum, std::size_t front, std::size_t tail,
                           FftScratch& scratch) {
  const std::size_t half = spectrum.fft_size / 2;
  const FftPlan& plan = scratch_plan(scratch, half);
  const std::size_t parts = std::min(simd::kLanes<double>, half);
  const std::size_t width = simd::kLanes<double> / parts;
  // The bins in lane 0 of rows of `width` lanes, the other lanes zero.
  scratch.natural_re.resize((half + 1) * width);
  scratch.natural_im.resize((half + 1) * width);
  for (std::size_t k = 0; k <= half; ++k) {
    scratch.natural_re[k * width] = spectrum.bins[k].real();
    scratch.natural_im[k * width] = spectrum.bins[k].imag();
    for (std::size_t l = 1; l < width; ++l) {
      scratch.natural_re[k * width + l] = 0.0;
      scratch.natural_im[k * width + l] = 0.0;
    }
  }
  return inverse_packed(plan, scratch.natural_re.data(), scratch.natural_im.data(), parts,
                        front, tail, scratch);
}

/// Throws unless `spectrum` is a well-formed half spectrum.
void check_spectrum(const HalfSpectrum& spectrum, const char* message) {
  const std::size_t n = spectrum.fft_size;
  if (n < 2 || !is_pow2(n) || spectrum.bins.size() != n / 2 + 1) {
    throw std::invalid_argument(message);
  }
}

/// The packed slots the lag window [-lag, lag] reads: window sample m
/// lives in slot m/2 (even samples in the real part, odd in the imaginary
/// part), so the window needs only the first lag/2+1 and the last
/// (lag+1)/2 slots of the inverse. Throws when fft_size < 2*lag + 1 (the
/// window would alias).
std::pair<std::size_t, std::size_t> window_slots(std::size_t fft_size, int max_lag,
                                                 const char* name) {
  if (max_lag < 0) throw std::invalid_argument(std::string(name) + ": max_lag must be >= 0");
  const std::size_t lag = static_cast<std::size_t>(max_lag);
  if (fft_size < 2 * lag + 1) {
    throw std::invalid_argument(std::string(name) + ": fft_size must be >= 2*max_lag + 1");
  }
  return {lag / 2 + 1, std::max<std::size_t>(1, (lag + 1) / 2)};
}

/// The lag window [-max_lag, max_lag] of lanes [0, lanes) of an inverse's
/// packed slots z (fft_size samples each): lane l's window at
/// out[l * (2*max_lag+1) ...], in lag order.
template <class T>
void read_window(LaneRows<T> z, std::size_t fft_size, int max_lag, std::size_t lanes,
                 std::vector<double>& out) {
  const std::size_t window = 2 * static_cast<std::size_t>(max_lag) + 1;
  out.resize(lanes * window);
  for (int l = -max_lag; l <= max_lag; ++l) {
    const std::size_t m =
        l >= 0 ? static_cast<std::size_t>(l) : fft_size - static_cast<std::size_t>(-l);
    const T* row = (m % 2 == 0 ? z.re : z.im) + (m / 2) * z.width;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      out[lane * window + static_cast<std::size_t>(l + max_lag)] = row[lane];
    }
  }
}

/// The fft_size of a one-signal forward transform of `count` samples (0 =
/// next_pow2(count), at least 2); throws unless it is a power of two >=
/// max(2, count).
std::size_t checked_fft_size(std::size_t count, std::size_t fft_size) {
  if (fft_size == 0) fft_size = std::max<std::size_t>(2, next_pow2(count));
  if (!is_pow2(fft_size) || fft_size < count || fft_size < 2) {
    throw std::invalid_argument("rfft_half: fft_size must be a power of two >= max(2, input size)");
  }
  return fft_size;
}

/// out[k] = sqrt(re^2 + im^2) in T of bins [0, bins) of rfft_one.
template <class T>
void magnitudes_into(std::span<const audio::Sample> older, std::span<const audio::Sample> newer,
                     std::size_t fft_size, std::size_t bins, double* out,
                     BasicLaneScratch<T>& scratch) {
  const LaneRows<T> spectrum = rfft_one(older, newer, fft_size, bins, scratch);
  for (std::size_t k = 0; k < bins; ++k) {
    const T r = spectrum.re[k * spectrum.width];
    const T i = spectrum.im[k * spectrum.width];
    out[k] = static_cast<double>(std::sqrt(r * r + i * i));
  }
}

}  // namespace

std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void HalfSpectrum::multiply(const HalfSpectrum& other) {
  if (other.fft_size != fft_size) {
    throw std::invalid_argument("HalfSpectrum::multiply: size mismatch");
  }
  for (std::size_t i = 0; i < bins.size(); ++i) bins[i] *= other.bins[i];
}

void rfft_half_into(std::span<const audio::Sample> x, std::size_t fft_size,
                    HalfSpectrum& out, FftScratch& scratch) {
  fft_size = checked_fft_size(x.size(), fft_size);
  const std::size_t half = fft_size / 2;
  const LaneRows<double> spectrum = rfft_one<double>(x, {}, fft_size, half + 1, scratch);
  out.fft_size = fft_size;
  out.bins.resize(half + 1);
  for (std::size_t k = 0; k <= half; ++k) {
    out.bins[k] = Complex(spectrum.re[k * spectrum.width], spectrum.im[k * spectrum.width]);
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
  const FftPlan& plan = scratch_plan(scratch, half);
  // Each signal as kLanes / width parts when a row has room.
  std::size_t parts = kLanes / lane_group_width<T>(signals.size());
  if (parts > half) parts = 1;
  const LaneRows<T> z =
      forward_packed(plan, signals.data(), signals.size(), count, parts, scratch);
  out.fft_size = fft_size;
  out.lanes = z.width;
  out.re.resize((half + 1) * z.width);
  out.im.resize((half + 1) * z.width);
  unpack(plan, z, half + 1, out.re.data(), out.im.data());
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
  check_spectrum(spectrum, "irfft_half: malformed spectrum");
  const std::size_t n = spectrum.fft_size;
  if (out_size == 0) out_size = n;
  const LaneRows<double> z = irfft_one(spectrum, n / 2, 0, scratch);
  out.assign(out_size, 0.0);
  for (std::size_t m = 0; m < std::min(out_size, n); ++m) {
    out[m] = (m % 2 == 0 ? z.re : z.im)[(m / 2) * z.width];
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
  check_spectrum(spectrum, "irfft_half_window: malformed spectrum");
  const auto [front, tail] = window_slots(spectrum.fft_size, max_lag, "irfft_half_window");
  read_window(irfft_one(spectrum, front, tail, scratch), spectrum.fft_size, max_lag, 1, out);
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
  const auto [front, tail] = window_slots(n, max_lag, "irfft_lanes_window");
  const FftPlan& plan = scratch_plan(scratch, half);
  read_window(inverse_packed(plan, spectrum.re.data(), spectrum.im.data(), 1, front, tail,
                             scratch),
              n, max_lag, kLanes, out);
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
  const std::size_t held = older.size() + newer.size();
  if (!is_pow2(fft_size) || fft_size < 8 || fft_size < held || bins > fft_size / 2 + 1) {
    throw std::invalid_argument(
        "rfft_magnitudes_head: fft_size must be a power of two >= max(8, input), "
        "bins <= fft_size/2 + 1");
  }
  magnitudes_into(older, newer, fft_size, bins, out, scratch);
}

template void rfft_magnitudes_head<double>(std::span<const audio::Sample>,
                                           std::span<const audio::Sample>, std::size_t,
                                           std::size_t, double*, LaneScratch&);
template void rfft_magnitudes_head<float>(std::span<const audio::Sample>,
                                          std::span<const audio::Sample>, std::size_t,
                                          std::size_t, double*, LaneScratchF&);

void magnitude_spectrum_into(std::span<const audio::Sample> x, std::size_t fft_size,
                             std::vector<double>& out, FftScratch& scratch) {
  fft_size = checked_fft_size(x.size(), fft_size);
  out.resize(fft_size / 2 + 1);
  magnitudes_into<double>(x, {}, fft_size, out.size(), out.data(), scratch);
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
