// Real-input radix-2 FFTs and helpers.
//
// Everything downstream (the operator's block STFT, pair GCC and
// directivity spectra, the liveness STFT, spectral features, the room
// simulator's convolution) funnels through this module. There is one
// transform layout: the lane layout of simd/kernels.h, in which up to a
// register of real signals is transformed at once, in float64 or float32.
// The one-signal API (rfft_half*, irfft_half*, magnitude_spectrum*) is a
// one-lane caller of it: the signal rides as up to four float64 parts of
// one transform. All transforms run off cached plans (precomputed
// twiddle/bit-reversal tables, see fft_plan.h); the *_into variants
// additionally reuse caller-owned scratch so hot loops allocate nothing
// after warm-up.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "audio/sample_buffer.h"
#include "dsp/simd/kernels.h"

namespace headtalk::dsp {

using Complex = std::complex<double>;

/// Smallest power of two >= n (returns 1 for n == 0).
[[nodiscard]] std::size_t next_pow2(std::size_t n) noexcept;

/// One-sided ("half") spectrum of a real signal: bins 0..N/2 inclusive.
/// Produced by rfft_half; multiply element-wise and invert with irfft_half.
struct HalfSpectrum {
  std::vector<Complex> bins;  ///< size fft_size/2 + 1
  std::size_t fft_size = 0;

  /// Element-wise product (sizes must match).
  void multiply(const HalfSpectrum& other);
};

/// Half spectra of up to simd::kLanes<T> real signals in the lane layout
/// (simd/kernels.h) with `lanes` lanes per row: bin k of lane l at
/// re/im[k * lanes + l], bins 0 .. fft_size/2 inclusive.
template <class T>
struct BasicLaneSpectrum {
  std::vector<T> re, im;
  std::size_t fft_size = 0;
  std::size_t lanes = 0;
};
using LaneSpectrum = BasicLaneSpectrum<double>;
using LaneSpectrumF = BasicLaneSpectrum<float>;

class FftPlan;

/// Workspace of the lane transforms: the packed lanes (fft_size/2 slots),
/// the natural-order result of a parted transform, for input in two runs
/// (rfft_magnitudes_head) the linearized signal, and the plan of the last
/// transform, so the plan cache is consulted only when the size changes.
/// Reusing one across calls keeps the hot path allocation-free once the
/// buffers reach their steady-state sizes. Not thread-safe: one scratch
/// per thread.
template <class T>
struct BasicLaneScratch {
  std::vector<T> re, im;
  std::vector<T> natural_re, natural_im;
  std::vector<audio::Sample> signal;
  std::shared_ptr<const FftPlan> plan;
};
using LaneScratch = BasicLaneScratch<double>;
using LaneScratchF = BasicLaneScratch<float>;

/// Caller-owned scratch for the one-signal transforms: the float64 lane
/// workspace they run in.
using FftScratch = LaneScratch;

/// Real-input FFT via the packed N/2 complex transform, the signal
/// zero-padded to fft_size (a power of two >= max(2, x.size()); 0 =
/// next_pow2(x.size()), at least 2).
[[nodiscard]] HalfSpectrum rfft_half(std::span<const audio::Sample> x,
                                     std::size_t fft_size = 0);

/// Inverse of rfft_half; returns `out_size` real samples (0 = fft_size),
/// zero past fft_size.
[[nodiscard]] std::vector<audio::Sample> irfft_half(const HalfSpectrum& spectrum,
                                                    std::size_t out_size = 0);

/// rfft_half writing into caller-owned output/scratch. Results are
/// bit-identical to the value-returning overload.
void rfft_half_into(std::span<const audio::Sample> x, std::size_t fft_size,
                    HalfSpectrum& out, FftScratch& scratch);

/// irfft_half writing into caller-owned output/scratch (out_size 0 = full
/// fft length). Results are bit-identical to the value-returning overload.
void irfft_half_into(const HalfSpectrum& spectrum, std::size_t out_size,
                     std::vector<audio::Sample>& out, FftScratch& scratch);

/// Inverse of rfft_half evaluated only on the symmetric lag window
/// [-max_lag, +max_lag] of the *circular* result: out[k] holds inverse
/// sample (k - max_lag) mod fft_size, so out has 2*max_lag+1 entries in
/// lag order. Uses an output-pruned inverse transform, so for windows much
/// shorter than fft_size (the GCC-PHAT case: ±13 lags of the 1024-point
/// block transform) this skips over half of the butterfly work while
/// computing the exact same butterflies as slicing a full irfft_half (the
/// two agree bit for bit). Throws when fft_size < 2*max_lag + 1 (the
/// window would alias).
void irfft_half_window_into(const HalfSpectrum& spectrum, int max_lag,
                            std::vector<double>& out, FftScratch& scratch);

// Lane transforms of real signals, in float64 or float32 (T). The float32
// ones run twice the lanes per register; the float64 ones equal the
// one-signal transforms above bit for bit.

/// rfft_half_into of up to simd::kLanes<T> signals at once: lane l is the
/// spectrum of signals[l][0 .. count) (converted to T) zero-padded to
/// fft_size (a power of two >= max(2, count)). The spectrum has rows of
/// max(4, next_pow2(signals.size())) lanes, so 4 signals fill a float64
/// row, and a float32 row — twice as wide — holds each of them as two
/// parts (FftPlan::forward_parted). Lanes past signals.size() are zero.
/// The float64 lanes equal rfft_half_into of their signals bit for bit.
template <class T>
void rfft_lanes_into(std::span<const audio::Sample* const> signals, std::size_t count,
                     std::size_t fft_size, BasicLaneSpectrum<T>& out,
                     BasicLaneScratch<T>& scratch);

/// irfft_half_window_into on every lane of a spectrum with full rows
/// (simd::kLanes<T> lanes): lane l's lag window goes to
/// out[l * (2*max_lag+1) .. (l+1) * (2*max_lag+1)); the float64 lanes are
/// bit-identical to the one-spectrum call. Same preconditions.
template <class T>
void irfft_lanes_window_into(const BasicLaneSpectrum<T>& spectrum, int max_lag,
                             std::vector<double>& out, BasicLaneScratch<T>& scratch);

/// A full row of lanes read through an order, as the pair kernels take
/// them (simd::LaneKernels::phat_lanes): lane l is
/// re/im[k * width + order[l]].
template <class T>
struct BasicLaneSelection {
  const T* re = nullptr;
  const T* im = nullptr;
  std::uint32_t order[simd::kLanes<T>] = {};
  std::size_t width = 0;
};
using LaneSelection = BasicLaneSelection<double>;
using LaneSelectionF = BasicLaneSelection<float>;

/// Selects lane from_lane[l] of *from[l] as lane l, for the
/// simd::kLanes<T> lanes of a row (a null from[l] is a spare lane, filled
/// with some used lane). When the used lanes share one spectrum the
/// selection reads it in place; otherwise the lanes are gathered into
/// `scratch`. The selection is valid while its sources are.
template <class T>
[[nodiscard]] BasicLaneSelection<T> select_lanes(const BasicLaneSpectrum<T>* const* from,
                                                 const std::size_t* from_lane,
                                                 BasicLaneSpectrum<T>& scratch);

/// out[k] = |bin k| of the real transform of x = older ++ newer (a ring
/// buffer's two runs, oldest first), converted to T and zero-padded to
/// fft_size (a power of two >= 8), for k in [0, bins). The packed
/// half-size transform runs as min(kLanes<T>, fft_size/2) parts of one
/// signal (FftPlan::forward_parted) and only the requested bins are
/// unpacked; the magnitudes are sqrt(re^2 + im^2) in T. This is the
/// forward body of every one-signal transform: the float64 results are
/// the magnitudes of rfft_half_into's bins, bit for bit
/// (magnitude_spectrum_into).
template <class T>
void rfft_magnitudes_head(std::span<const audio::Sample> older,
                          std::span<const audio::Sample> newer, std::size_t fft_size,
                          std::size_t bins, double* out, BasicLaneScratch<T>& scratch);

/// Magnitudes sqrt(re^2 + im^2) of the one-sided spectrum (bins 0 ..
/// fft_size/2 inclusive); fft_size as for rfft_half.
[[nodiscard]] std::vector<double> magnitude_spectrum(
    std::span<const audio::Sample> x, std::size_t fft_size = 0);

/// magnitude_spectrum writing into caller-owned output/scratch.
void magnitude_spectrum_into(std::span<const audio::Sample> x, std::size_t fft_size,
                             std::vector<double>& out, FftScratch& scratch);

/// Frequency in Hz of one-sided spectrum bin `k` at the given fft size/rate.
[[nodiscard]] double bin_frequency(std::size_t k, std::size_t fft_size,
                                   double sample_rate) noexcept;

}  // namespace headtalk::dsp
