// Kernel table shared by every SIMD dispatch level.
//
// The spectral kernels operate on interleaved complex data (`double*`
// viewing a `std::complex<double>` array: re0, im0, re1, im1, …) — the
// layout std::complex guarantees — so the same pointers serve scalar loops
// and packed vector loads. Sizes are in *complex elements* unless a
// parameter says otherwise. The biquad cascade instead works on real
// per-channel sample buffers, one channel per vector lane. Each level
// (scalar / SSE2 / AVX2) provides one immutable table; dispatch.h selects
// between them at runtime.
#pragma once

#include <cstddef>

namespace headtalk::dsp::simd {

struct Kernels {
  /// Display name ("scalar", "sse2", "avx2").
  const char* name;

  /// One radix-2 decimation-in-time stage over `n` interleaved complexes
  /// already in bit-reversed block order. For every block of `len`
  /// complexes, performs the butterflies k in [k_begin, k_end) (k_end <=
  /// len/2):
  ///   w = twiddles[k] (conjugated when `conjugate`)
  ///   u = x[i+k]; v = x[i+k+len/2] * w
  ///   x[i+k] = u + v; x[i+k+len/2] = u - v
  /// `twiddles` points at the stage's interleaved table (len/2 entries).
  /// The k-range parameters let the pruned inverse reuse the same kernel
  /// for partial stages.
  void (*butterfly_stage)(double* x, std::size_t n, std::size_t len,
                          std::size_t k_begin, std::size_t k_end,
                          const double* twiddles, bool conjugate);

  /// values[i] *= factor for i in [0, count) — count is in doubles.
  void (*scale)(double* values, std::size_t count, double factor);

  /// acc[i] += src[i] for i in [0, count) — count is in doubles.
  void (*accumulate)(double* acc, const double* src, std::size_t count);

  /// out[k] = x[k] * conj(y[k]) over `bins` complexes; when `phat`, the
  /// product is normalized to unit magnitude (zero when |c| <= epsilon).
  /// `out` may alias neither input.
  void (*cross_spectrum)(const double* x, const double* y, double* out,
                         std::size_t bins, bool phat, double epsilon);

  /// out[k] = sqrt(re^2 + im^2) over `bins` complexes.
  void (*magnitudes)(const double* x, std::size_t bins, double* out);

  /// Real-FFT unpack: given the forward transform `z` of the even/odd
  /// packed sequence (half complexes) and the interleaved pack twiddles
  /// `w` (half+1 entries of exp(-i*pi*k/half)), writes spectrum bins
  /// k in [1, half) as out[k] = E_k + w_k * O_k where
  ///   E_k = (z[k] + conj(z[half-k])) / 2
  ///   O_k = -i * (z[k] - conj(z[half-k])) / 2.
  /// Bins 0 and half (pure-real edge cases) are the caller's job.
  void (*rfft_unpack)(const double* z, const double* w, double* out,
                      std::size_t half);

  /// Inverse of rfft_unpack: from spectrum bins[0..half] (interleaved,
  /// half+1 complexes) rebuilds the packed sequence
  ///   z[k] = E_k + i * O_k,  E_k = (b[k] + conj(b[half-k])) / 2,
  ///   O_k = (b[k] - conj(b[half-k])) / 2 * conj(w[k])
  /// for k in [0, half).
  void (*irfft_repack)(const double* bins, const double* w, double* z,
                       std::size_t half);

  /// Direct-form-II-transposed biquad cascade over `lanes` channels that
  /// share one coefficient set. `coeffs` holds `sections` rows of
  /// {b0, b1, b2, a1, a2}; `state` holds the delay lines as
  /// [section][z1, z2][lane] (2 * sections * lanes doubles), read on entry
  /// and written back on exit so consecutive calls filter one continuous
  /// signal. For every lane l and sample i in [0, frames):
  ///   v = in[l][i]; per section: y = b0*v + z1; z1 = b1*v - a1*y + z2;
  ///   z2 = b2*v - a2*y; v = y;  then out[l][i] = v
  /// — dsp::Biquad::process's arithmetic, evaluated without FMA
  /// contraction, so every level equals BiquadCascade::process on each
  /// channel bit for bit. Lanes are channels: SSE2 packs 2 per vector,
  /// AVX2 4, and a ragged tail drops to narrower groups. No output buffer
  /// may overlap an input or another output.
  void (*biquad_cascade)(const double* coeffs, std::size_t sections,
                         double* state, std::size_t lanes,
                         const double* const* in, double* const* out,
                         std::size_t frames);
};

/// Reference kernels — compiled with vectorization disabled.
const Kernels& scalar_kernels() noexcept;

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) || defined(_M_IX86)
#define HEADTALK_SIMD_X86 1
/// Same source as scalar, compiled for the SSE2 baseline with the
/// autovectorizer on; the biquad cascade runs two channels per register.
const Kernels& sse2_kernels() noexcept;
/// AVX2+FMA: hand-written intrinsics for the butterfly / PHAT / magnitude
/// / accumulate loops, autovectorized code for the rest, and a four-lane
/// biquad cascade built without FMA (biquad_avx2.cpp).
const Kernels& avx2_kernels() noexcept;
#endif

}  // namespace headtalk::dsp::simd
