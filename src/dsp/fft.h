// Radix-2 iterative FFT and helpers.
//
// Everything downstream (the operator's block STFT, pair GCC and
// directivity spectra, the liveness STFT, spectral features) funnels
// through this module: power-of-two complex transforms with a real-input
// convenience wrapper, and lane variants that transform up to four real
// signals at once. All transforms run off cached plans (precomputed
// twiddle/bit-reversal tables, see fft_plan.h); the *_into variants
// additionally reuse caller-owned scratch so hot loops allocate nothing
// after warm-up.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "audio/sample_buffer.h"

namespace headtalk::dsp {

using Complex = std::complex<double>;

/// Smallest power of two >= n (returns 1 for n == 0).
[[nodiscard]] std::size_t next_pow2(std::size_t n) noexcept;

/// In-place forward FFT. `x.size()` must be a power of two.
/// Throws std::invalid_argument otherwise.
void fft(std::vector<Complex>& x);

/// In-place inverse FFT (includes the 1/N scaling).
void ifft(std::vector<Complex>& x);

/// Forward FFT of a real signal, zero-padded to `fft_size` (power of two,
/// defaults to next_pow2(x.size())). Returns the full complex spectrum of
/// length fft_size (conjugate-symmetric).
[[nodiscard]] std::vector<Complex> rfft(std::span<const audio::Sample> x,
                                        std::size_t fft_size = 0);

/// Inverse of rfft: returns the real part of the inverse transform,
/// truncated to `out_size` samples (0 = full fft length).
[[nodiscard]] std::vector<audio::Sample> irfft(std::vector<Complex> spectrum,
                                               std::size_t out_size = 0);

/// One-sided ("half") spectrum of a real signal: bins 0..N/2 inclusive.
/// Produced by rfft_half; multiply element-wise and invert with irfft_half.
struct HalfSpectrum {
  std::vector<Complex> bins;  ///< size fft_size/2 + 1
  std::size_t fft_size = 0;

  /// Element-wise product (sizes must match).
  void multiply(const HalfSpectrum& other);
  /// Element-wise accumulate of a*b into this.
  void add_product(const HalfSpectrum& a, const HalfSpectrum& b);
};

/// Real-input FFT via the packed N/2 complex transform — ~2x faster than
/// rfft for the same input. fft_size must be a power of two >= 2.
[[nodiscard]] HalfSpectrum rfft_half(std::span<const audio::Sample> x,
                                     std::size_t fft_size = 0);

/// Inverse of rfft_half; returns `out_size` real samples (0 = fft_size).
[[nodiscard]] std::vector<audio::Sample> irfft_half(const HalfSpectrum& spectrum,
                                                    std::size_t out_size = 0);

/// Caller-owned scratch for the packed real transforms. Reusing one across
/// calls keeps the hot path allocation-free once the buffers reach their
/// steady-state sizes. Not thread-safe: one scratch per thread.
struct FftScratch {
  std::vector<Complex> packed;  ///< N/2 packed complex workspace
  HalfSpectrum half;            ///< spectrum scratch for magnitude_spectrum_into
};

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

/// Half spectra of up to simd::kFftLanes real signals in the lane layout
/// (simd/kernels.h): bin k of lane l at re/im[k * kFftLanes + l], bins
/// 0 .. fft_size/2 inclusive.
struct LaneSpectrum {
  std::vector<double> re, im;
  std::size_t fft_size = 0;
};

/// Workspace of the lane transforms: the packed lanes (fft_size/2 rows)
/// and, for rfft_magnitudes_head, the linearized input.
struct LaneScratch {
  std::vector<double> re, im;
  std::vector<audio::Sample> signal;
};

/// rfft_half_into of up to simd::kFftLanes signals at once: lane l is the
/// spectrum of signals[l][0 .. count) zero-padded to fft_size (a power of
/// two >= max(2, count)); lanes past signals.size() are zero. Every lane
/// equals rfft_half_into of its signal bit for bit.
void rfft_lanes_into(std::span<const audio::Sample* const> signals, std::size_t count,
                     std::size_t fft_size, LaneSpectrum& out, LaneScratch& scratch);

/// irfft_half_window_into on every lane of `spectrum`: lane l's lag window
/// goes to out[l * (2*max_lag+1) .. (l+1) * (2*max_lag+1)), bit-identical
/// to the one-spectrum call. Same preconditions.
void irfft_lanes_window_into(const LaneSpectrum& spectrum, int max_lag,
                             std::vector<double>& out, LaneScratch& scratch);

/// Four lanes read through an order, as the pair kernels take them
/// (simd::Kernels::phat_lanes): lane l is re/im[k * 4 + order[l]].
struct LaneSelection {
  const double* re = nullptr;
  const double* im = nullptr;
  std::uint32_t order[4] = {0, 1, 2, 3};
};

/// Selects lane from_lane[l] of *from[l] as lane l (a null from[l] is a
/// spare lane, filled with some used lane). When the used lanes share one
/// spectrum the selection reads it in place; otherwise the lanes are
/// gathered into `scratch`. The selection is valid while its sources are.
[[nodiscard]] LaneSelection select_lanes(const LaneSpectrum* const* from,
                                         const std::size_t* from_lane,
                                         LaneSpectrum& scratch);

/// out[k] = |bin k| of rfft_half_into(x, fft_size) for k in [0, bins),
/// where x = older ++ newer (a ring buffer's two runs, oldest first),
/// zero-padded to fft_size (a power of two >= 8). The packed half-size
/// transform runs as four quarter lanes (FftPlan::forward_quartered) and
/// only the requested bins are unpacked; the magnitudes are
/// sqrt(re^2 + im^2), so results are bit-identical to rfft_half_into
/// followed by simd::Kernels::magnitudes (magnitude_spectrum_into).
void rfft_magnitudes_head(std::span<const audio::Sample> older,
                          std::span<const audio::Sample> newer, std::size_t fft_size,
                          std::size_t bins, double* out, LaneScratch& scratch);

/// Magnitudes of the one-sided spectrum (bins 0 .. fft_size/2 inclusive).
[[nodiscard]] std::vector<double> magnitude_spectrum(
    std::span<const audio::Sample> x, std::size_t fft_size = 0);

/// magnitude_spectrum writing into caller-owned output/scratch.
void magnitude_spectrum_into(std::span<const audio::Sample> x, std::size_t fft_size,
                             std::vector<double>& out, FftScratch& scratch);

/// Frequency in Hz of one-sided spectrum bin `k` at the given fft size/rate.
[[nodiscard]] double bin_frequency(std::size_t k, std::size_t fft_size,
                                   double sample_rate) noexcept;

}  // namespace headtalk::dsp
