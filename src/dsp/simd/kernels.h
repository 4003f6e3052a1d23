// Kernel table shared by every SIMD dispatch level.
//
// Two data layouts:
//   * interleaved complex (`double*` viewing a `std::complex<double>`
//     array: re0, im0, re1, im1, …) for the one-spectrum kernels; sizes
//     are in *complex elements* unless a parameter says otherwise;
//   * the lane layout of the transforms: kFftLanes independent signals
//     (channels, microphone pairs, or the quarters of one transform) held
//     as separate re/im arrays indexed [row * kFftLanes + lane]. Every
//     lane kernel applies one scalar formula to each lane, so each lane
//     equals the one-signal reference bit for bit.
// The biquad cascade works on real per-channel sample buffers, one channel
// per vector lane. Each level (scalar / SSE2 / AVX2) provides one
// immutable table; dispatch.h selects between them at runtime. No level
// fuses a multiply and an add, so every kernel gives the same bits at
// every level.
#pragma once

#include <cstddef>
#include <cstdint>

namespace headtalk::dsp::simd {

/// Lanes per row of the lane layout: one AVX2 register of doubles.
inline constexpr std::size_t kFftLanes = 4;

struct Kernels {
  /// Display name ("scalar", "sse2", "avx2").
  const char* name;

  /// values[i] *= factor for i in [0, count) — count is in doubles.
  void (*scale)(double* values, std::size_t count, double factor);

  /// acc[i] += src[i] for i in [0, count) — count is in doubles.
  void (*accumulate)(double* acc, const double* src, std::size_t count);

  /// out[k] = x[k] * conj(y[k]) over `bins` complexes; when `phat`, the
  /// product c is normalized to unit magnitude by one reciprocal,
  /// c * (1 / sqrt(cr^2 + ci^2)) (zero when |c| <= epsilon).
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

  /// Radix-2 decimation-in-time stages over `rows` rows of the lane
  /// layout (bit-reversed row order on entry). For every stage length
  /// len = first_len, 2*first_len, …, last_len and every block of `len`
  /// rows, runs the butterflies k in [k_begin, min(k_end, len/2)) on each
  /// lane:
  ///   w = twiddles of stage len, entry k (conjugated when `conjugate`)
  ///   u = x[i+k]; v = x[i+k+len/2] * w   (vr = br*wr - bi*wi,
  ///                                       vi = br*wi + bi*wr)
  ///   x[i+k] = u + v; x[i+k+len/2] = u - v
  /// `twiddles` is the FftPlan table: stages len = 2, 4, … packed back to
  /// back as interleaved complexes, stage len starting at entry len/2 - 1.
  /// A k-range narrower than a stage is the pruned inverse's partial
  /// stage; whole stages may be fused in pairs into one pass over memory,
  /// which keeps every operation and its operands unchanged.
  void (*fft_lane_stages)(double* re, double* im, std::size_t rows,
                          std::size_t first_len, std::size_t last_len,
                          std::size_t k_begin, std::size_t k_end,
                          const double* twiddles, bool conjugate);

  /// The last two stages (len = 2*rows and 4*rows) of a *quartered*
  /// transform: one signal of 4 * `rows` points whose position p sits at
  /// row p % rows, lane p / rows, after its in-lane stages. Their
  /// butterflies pair lanes within a row. The same butterflies as
  /// fft_lane_stages, pruned like FftPlan::inverse_pruned to the outputs
  /// [0, front) and [4*rows - tail, 4*rows) (front + tail >= 2*rows keeps
  /// both stages whole).
  void (*fft_cross_stages)(double* re, double* im, std::size_t rows,
                           const double* twiddles, bool conjugate, std::size_t front,
                           std::size_t tail);

  /// rfft_unpack on every lane: z is the forward transform of the packed
  /// lanes (`half` rows), w the interleaved pack twiddles; writes rows
  /// k in [1, half) of the lane spectrum (half + 1 rows).
  void (*rfft_unpack_lanes)(const double* z_re, const double* z_im, const double* w,
                            double* out_re, double* out_im, std::size_t half);

  /// irfft_repack on every lane: from spectrum rows 0..half builds packed
  /// row k in [0, half) and stores it at row bit_reverse[k], ready for the
  /// inverse stages.
  void (*irfft_repack_lanes)(const double* bins_re, const double* bins_im,
                             const double* w, const std::uint32_t* bit_reverse,
                             double* z_re, double* z_im, std::size_t half);

  // The two pair kernels read their operands through a lane order: lane l
  // of x is x[k * kFftLanes + x_order[l]] (likewise y), so the pairs of a
  // channel group are read straight from its spectrum, one permute per row.

  /// cross_spectrum with PHAT weighting on every lane of `rows` rows:
  /// c = x * conj(y), mag = sqrt(cr^2 + ci^2), inv = 1 / mag, and
  /// out = (cr * inv, ci * inv), or 0 when mag <= epsilon. One division
  /// per bin, as in cross_spectrum.
  void (*phat_lanes)(const double* x_re, const double* x_im, const std::uint32_t* x_order,
                     const double* y_re, const double* y_im, const std::uint32_t* y_order,
                     double* out_re, double* out_im, std::size_t rows, double epsilon);

  /// Coherence partial sums on every lane: for group g in [0, groups) the
  /// rows k = g*stride*block + stride*i, i < block, k < rows, summed in
  /// that order from zero:
  ///   cr += xr*yr + xi*yi; ci += xi*yr - xr*yi;
  ///   px += xr*xr + xi*xi; py += yr*yr + yi*yi
  /// and written to sums[((g * 4) + s) * kFftLanes + lane] for
  /// s = cr, ci, px, py.
  void (*coherence_lanes)(const double* x_re, const double* x_im,
                          const std::uint32_t* x_order, const double* y_re,
                          const double* y_im, const std::uint32_t* y_order,
                          std::size_t rows, std::size_t stride, std::size_t block,
                          std::size_t groups, double* sums);

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

  /// FIR decimation that computes only the kept outputs, from the input's
  /// polyphase rows: row p (at rows + p * row_stride) holds input samples
  /// p, p + step, p + 2 * step, …, so input[n] = rows[(n % step) *
  /// row_stride + n / step]. For m in [0, count)
  ///   out[m] = sum over t in [0, tap_count) of taps[t] * input[m * step + t],
  /// accumulated from zero in tap order t = 0, 1, …, tap_count - 1, one
  /// rounding per multiply and per add. Lanes are outputs (AVX2 computes 4
  /// consecutive ones per register, a contiguous load per tap), so every
  /// output sums the same products in the same order at every level.
  /// `out` may not overlap the rows.
  void (*fir_decimate)(const double* taps, std::size_t tap_count, const double* rows,
                       std::size_t row_stride, std::size_t step, double* out,
                       std::size_t count);
};

/// Reference kernels — compiled with vectorization disabled.
const Kernels& scalar_kernels() noexcept;

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) || defined(_M_IX86)
#define HEADTALK_SIMD_X86 1
/// Same source as scalar, compiled for the SSE2 baseline with the
/// autovectorizer on; the biquad cascade runs two channels per register.
const Kernels& sse2_kernels() noexcept;
/// AVX2 without FMA: four lanes per register for the lane kernels and the
/// biquad cascade, hand-written intrinsics for the interleaved PHAT /
/// magnitude / accumulate loops, autovectorized code for the rest.
const Kernels& avx2_kernels() noexcept;
#endif

}  // namespace headtalk::dsp::simd
