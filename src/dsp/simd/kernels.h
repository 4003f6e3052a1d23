// Kernel table shared by every SIMD dispatch level.
//
// One data layout for the transforms: the lane layout, in which
// independent signals (channels, microphone pairs, or the parts of one
// transform) are held as separate re/im arrays indexed [row * lanes +
// lane]. A full row holds kLanes<T> lanes — one AVX2 register: 4 doubles
// or 8 floats. Every lane kernel applies one scalar formula to each lane,
// so each lane equals the one-signal reference bit for bit.
// The lane kernels come in two element types (LaneKernels<T>): float32, 8
// lanes per row, for the operator's transforms, and float64, 4 lanes per
// row, for the one-signal transforms of dsp/fft.h (one signal as up to 4
// parts) and the float64 lane API. Both are instantiated from the same
// kernel bodies (lanes.inl).
// The biquad cascade works on real per-channel sample buffers, one channel
// per vector lane, or one channel's sections across the lanes; the FIR
// decimator, `accumulate` and `sum_squares` on real arrays; `decode_f32`
// on the wire's raw float32 bytes. Each level (scalar, AVX2) provides one
// immutable table; dispatch.h selects between them at runtime. No level
// fuses a multiply and an add, so every kernel gives the same bits at
// both levels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace headtalk::dsp::simd {

/// Lanes per full row of the lane layout: one AVX2 register of T.
template <class T>
inline constexpr std::size_t kLanes = 32 / sizeof(T);

/// The lane kernels of one element type. Rows hold `N` lanes unless a
/// parameter gives a narrower row; the partial sums of coherence_lanes are
/// float64 in both instantiations.
template <class T, std::size_t N = kLanes<T>>
struct LaneKernels {
  /// Radix-2 decimation-in-time stages over `rows` full rows of the lane
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
  void (*fft_lane_stages)(T* re, T* im, std::size_t rows, std::size_t first_len,
                          std::size_t last_len, std::size_t k_begin, std::size_t k_end,
                          const T* twiddles, bool conjugate);

  /// The stages of a *parted* transform that pair its parts. G = N / parts
  /// signals of parts * `rows` points each sit in the parted layout:
  /// position p of signal g at row p % rows, lane (p / rows) * G + g, after
  /// the in-lane stages (len <= rows). The kernel moves them to natural
  /// order — position p of signal g at out[p * G + g], rows of G lanes —
  /// and there runs the stages len = 2*rows … parts*rows with
  /// fft_lane_stages' butterflies, pruned like FftPlan::inverse_pruned to
  /// the outputs [0, front) and [parts*rows - tail, parts*rows) (front +
  /// tail >= parts*rows keeps every stage whole). parts is a power of two
  /// in [2, N]; `out` may not overlap the input.
  void (*fft_cross_stages)(const T* re, const T* im, std::size_t rows, std::size_t parts,
                           const T* twiddles, bool conjugate, std::size_t front,
                           std::size_t tail, T* out_re, T* out_im);

  /// Packs real signals for a parted transform (see fft_cross_stages;
  /// parts in [1, N], G = N / parts): row r, part q, lane g receives
  /// packed slot n = bit_reverse[q * rows + r] of signal g, re = x_g[2n]
  /// and im = x_g[2n + 1] converted to T, or zero past `count` samples
  /// and for g >= `used`. Rows are written in order. Since bit_reverse[q *
  /// rows + r] = bit_reverse[r] + bit_reverse[q * rows], a row's slots are
  /// consecutive: each signal's row is the 2 * parts samples from
  /// x_g[2 * bit_reverse[r]] on, loaded as vectors, converted and put in
  /// part order by one fixed lane permutation. Only a row that runs past
  /// `count` is packed slot by slot.
  void (*pack_lanes)(const double* const* signals, std::size_t used, std::size_t count,
                     const std::uint32_t* bit_reverse, std::size_t rows, std::size_t parts,
                     T* re, T* im);

  /// The real-FFT unpack on every lane: z is the forward transform of the
  /// packed signals in natural order, `half` rows of `lanes` lanes (a
  /// power of two <= N), w the interleaved pack twiddles (half+1 entries
  /// of exp(-i*pi*k/half)); writes rows k in [1, min(bins, half)) of the
  /// lane spectrum (rows of `lanes` lanes) as out[k] = E_k + w_k * O_k:
  ///   E_k = (z[k] + conj(z[half-k])) / 2,
  ///   O_k = -i * (z[k] - conj(z[half-k])) / 2,
  /// evaluated as er = 0.5*(ar+br), ei = 0.5*(ai-bi), odr = 0.5*(ai+bi),
  /// odi = -0.5*(ar-br), out = (er + odr*wr - odi*wi, ei + odr*wi + odi*wr)
  /// (a = z[k], b = z[half-k]). Rows 0 and half, which both read z[0], are
  /// the caller's.
  void (*rfft_unpack_lanes)(const T* z_re, const T* z_im, std::size_t lanes, const T* w,
                            T* out_re, T* out_im, std::size_t half, std::size_t bins);

  /// The inverse of the unpack, into the packed layout of a parted
  /// inverse (parts in [1, N], a power of two; G = N / parts signals of
  /// half = rows * parts points): from spectrum rows 0..half of G lanes
  /// builds packed slot k in [0, half) of each signal,
  ///   z[k] = E_k + i * O_k,  E_k = (b[k] + conj(b[half-k])) / 2,
  ///   O_k = (b[k] - conj(b[half-k])) / 2 * conj(w[k]),
  /// evaluated as er = 0.5*(ar+br), ei = 0.5*(ai-bi), dr = 0.5*(ar-br),
  /// di = 0.5*(ai+bi), od = (dr*wr - di*wi', dr*wi' + di*wr) with wi' =
  /// -wi, z = (er - odi, ei + odr); and stores it at bit-reversed position
  /// p = bit_reverse[k]: row p % rows, lane (p / rows) * G + g, as
  /// pack_lanes places its slots. Rows are written in order.
  void (*irfft_repack_lanes)(const T* bins_re, const T* bins_im, const T* w,
                             const std::uint32_t* bit_reverse, std::size_t rows,
                             std::size_t parts, T* z_re, T* z_im);

  // The two pair kernels read their operands through a lane order: lane l
  // of x is x[k * x_width + x_order[l]] (likewise y; a width is the row
  // length of its operand, at most N), so the pairs of a channel group are
  // read straight from its spectrum, one permute per row. They write full
  // rows.

  /// The PHAT-weighted cross spectrum on every lane of `rows` rows:
  /// c = x * conj(y) (cr = xr*yr + xi*yi, ci = xi*yr - xr*yi),
  /// mag = sqrt(cr^2 + ci^2), inv = 1 / mag, and out = (cr * inv, ci *
  /// inv), or 0 when mag <= epsilon. One division per bin.
  void (*phat_lanes)(const T* x_re, const T* x_im, const std::uint32_t* x_order,
                     std::size_t x_width, const T* y_re, const T* y_im,
                     const std::uint32_t* y_order, std::size_t y_width, T* out_re,
                     T* out_im, std::size_t rows, T epsilon);

  /// Coherence partial sums on every lane, in float64: for group g in
  /// [0, groups) the rows k = g*stride*block + stride*i, i < block,
  /// k < rows, summed in that order from zero:
  ///   cr += xr*yr + xi*yi; ci += xi*yr - xr*yi;
  ///   px += xr*xr + xi*xi; py += yr*yr + yi*yi
  /// (every operand widened to double first) and written to
  /// sums[((g * 4) + s) * N + lane] for s = cr, ci, px, py.
  void (*coherence_lanes)(const T* x_re, const T* x_im, const std::uint32_t* x_order,
                          std::size_t x_width, const T* y_re, const T* y_im,
                          const std::uint32_t* y_order, std::size_t y_width,
                          std::size_t rows, std::size_t stride, std::size_t block,
                          std::size_t groups, double* sums);
};

struct Kernels {
  /// Display name ("scalar", "avx2").
  const char* name;

  /// acc[i] += src[i] for i in [0, count) — count is in doubles.
  void (*accumulate)(double* acc, const double* src, std::size_t count);

  /// Σ x[i]² over i in [0, count), in one fixed lane-blocked order: 16
  /// partial sums from zero, sum j adding x[i] * x[i] for i ≡ j (mod 16)
  /// in increasing i, then folded pairwise, s[j] += s[j + w] for w = 8, 4,
  /// 2, 1; returns s[0]. One rounding per multiply and per add, so every
  /// level returns the same bits.
  double (*sum_squares)(const double* x, std::size_t count);

  /// The AUDIO_CHUNK sample decoder: `frames` frames of `channels`
  /// little-endian IEEE-754 float32 samples, frame-major, at `payload`
  /// (any alignment). First checks every sample's bit pattern: one with an
  /// all-ones exponent (NaN or ±Inf) makes it return false having written
  /// nothing. Otherwise it writes sample c of frame f, converted to double,
  /// to channel_out[c][f] when `channel_out` is non-null, and the samples
  /// as floats in payload order to `interleaved_out` when that is non-null,
  /// and returns true; with both null it only checks. Pure data movement:
  /// every level writes the same bits. Channel counts 1, 2 and multiples
  /// of 4 run vector paths at AVX2, any other count one branch-free loop;
  /// the scalar level assembles each sample from its bytes, independent of
  /// the host's byte order.
  bool (*decode_f32)(const std::uint8_t* payload, std::size_t frames,
                     std::size_t channels, double* const* channel_out,
                     float* interleaved_out);

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
  /// channel bit for bit. The cascade runs in passes of at most 8
  /// sections, each over all frames (section s reads only section s-1's
  /// output, so a pass boundary changes no operation), and a pass keeps
  /// every section's delay line in registers for the whole call. Two
  /// layouts:
  ///   * several channels: lanes are channels (AVX2 4 per vector), loaded
  ///     and stored a vector's width of frames at a time through a
  ///     transpose; a ragged tail runs one channel at a time;
  ///   * one channel: lanes are sections. Lane s filters sample t - s at
  ///     step t, fed by lane s-1's output of step t-1 (the registers shift
  ///     up one lane per step), so the sections advance together; the
  ///     S-1 steps that fill and the S-1 that drain this diagonal run one
  ///     section at a time.
  /// No output buffer may overlap an input or another output.
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

  /// The transforms' lane kernels: float64 (the one-signal transforms and
  /// the float64 lane API) and float32 (the operator's block STFT, pair
  /// PHAT and inverse, and directivity spectrum).
  LaneKernels<double> f64;
  LaneKernels<float> f32;

  template <class T>
  [[nodiscard]] const LaneKernels<T>& lanes() const noexcept {
    if constexpr (std::is_same_v<T, float>) {
      return f32;
    } else {
      return f64;
    }
  }
};

/// Reference kernels — compiled with vectorization disabled.
const Kernels& scalar_kernels() noexcept;

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) || defined(_M_IX86)
#define HEADTALK_X86 1
/// AVX2 without FMA: 4 doubles or 8 floats per register for the lane
/// kernels, four channels or sections for the biquad cascade, four outputs
/// per register for the FIR decimator and four partial sums per register
/// for sum_squares, an intrinsics accumulate loop, and a decoder that
/// checks eight samples per compare and widens four per cvtps2pd.
const Kernels& avx2_kernels() noexcept;
#endif

}  // namespace headtalk::dsp::simd
