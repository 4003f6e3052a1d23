// AVX2 kernels. The lane kernels and the biquad cascade run four lanes
// per register (lanes.inl with the policy below); the interleaved PHAT /
// magnitude / accumulate loops are hand-written intrinsics (the
// complex-multiply shuffle pattern defeats the autovectorizer's cost
// model); the rest reuse the generic bodies, which this TU's -mavx2 flag
// lets the compiler vectorize.
//
// Numerics: this TU is built with -mavx2 alone and -ffp-contract=off (see
// src/dsp/CMakeLists.txt): no multiply and add are ever fused into one
// rounding, so every kernel computes the scalar reference's bits.
#include "dsp/simd/kernels.h"

#if defined(HEADTALK_SIMD_X86)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace headtalk::dsp::simd {

#define HEADTALK_SIMD_NS avx2_impl
#include "dsp/simd/kernels_impl.inl"
#include "dsp/simd/lanes.inl"
#undef HEADTALK_SIMD_NS

namespace {

struct Avx2Lanes {
  using Vec = __m256d;
  static constexpr std::size_t kWidth = 4;
  static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Vec broadcast(double x) { return _mm256_set1_pd(x); }
  /// The order as 32-bit word indices: each double is a pair of words, so
  /// one cross-lane permute reads a whole row through it.
  using Order = __m256i;
  static Order prepare(const std::uint32_t* o) {
    return _mm256_setr_epi32(static_cast<int>(2 * o[0]), static_cast<int>(2 * o[0] + 1),
                             static_cast<int>(2 * o[1]), static_cast<int>(2 * o[1] + 1),
                             static_cast<int>(2 * o[2]), static_cast<int>(2 * o[2] + 1),
                             static_cast<int>(2 * o[3]), static_cast<int>(2 * o[3] + 1));
  }
  static Vec load_ordered(const double* row, Order order, std::size_t /*l*/) {
    return _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row)), order));
  }
  static Vec gather(const double* const* src, std::size_t i) {
    return _mm256_set_pd(src[3][i], src[2][i], src[1][i], src[0][i]);
  }
  static void scatter(double* const* dst, std::size_t i, Vec v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    _mm_storel_pd(dst[0] + i, lo);
    _mm_storeh_pd(dst[1] + i, lo);
    _mm_storel_pd(dst[2] + i, hi);
    _mm_storeh_pd(dst[3] + i, hi);
  }
  static Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) { return _mm256_div_pd(a, b); }
  static Vec sqrt(Vec a) { return _mm256_sqrt_pd(a); }
  static Vec keep_gt(Vec mag, Vec eps, Vec value) {
    return _mm256_and_pd(_mm256_cmp_pd(mag, eps, _CMP_GT_OQ), value);
  }
};

// Sign mask that negates the imaginary (odd) lanes of an interleaved
// complex vector. _mm256_set_pd lists lanes high-to-low.
inline __m256d odd_lane_sign_mask() {
  return _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
}

// Both cross stages, two rows per iteration: unpack the rows into the
// stage-2R butterfly operands (lanes 0,2 against 1,3), swap halves into the
// stage-4R operands (lanes 0,1 against 2,3), and permute back to rows.
void cross_stages_avx2(double* re, double* im, std::size_t rows, const double* twiddles,
                       bool conjugate, std::size_t front, std::size_t tail) {
  if (front + tail < 2 * rows || rows % 2 != 0) {
    avx2_impl::cross_stages_generic(re, im, rows, twiddles, conjugate, front, tail);
    return;
  }
  using avx2_impl::butterfly;
  const __m256d sign = _mm256_set1_pd(conjugate ? -1.0 : 1.0);
  const double* tw1 = twiddles + 2 * (rows - 1);
  const double* tw2 = twiddles + 2 * (2 * rows - 1);
  for (std::size_t r = 0; r < rows; r += 2) {
    double* pr = re + r * kFftLanes;
    double* pi = im + r * kFftLanes;
    const __m256d r0 = _mm256_loadu_pd(pr), r1 = _mm256_loadu_pd(pr + kFftLanes);
    const __m256d i0 = _mm256_loadu_pd(pi), i1 = _mm256_loadu_pd(pi + kFftLanes);
    // Stage 2R: [x0 x0' x2 x2'] against [x1 x1' x3 x3'] (' = row r+1).
    __m256d ar = _mm256_unpacklo_pd(r0, r1), br = _mm256_unpackhi_pd(r0, r1);
    __m256d ai = _mm256_unpacklo_pd(i0, i1), bi = _mm256_unpackhi_pd(i0, i1);
    const __m128d t0 = _mm_loadu_pd(tw1 + 2 * r), t1 = _mm_loadu_pd(tw1 + 2 * r + 2);
    const __m128d w1r = _mm_unpacklo_pd(t0, t1), w1i = _mm_unpackhi_pd(t0, t1);
    butterfly<Avx2Lanes>(ar, ai, br, bi, _mm256_set_m128d(w1r, w1r),
                         _mm256_mul_pd(sign, _mm256_set_m128d(w1i, w1i)));
    // Stage 4R: [y0 y0' y1 y1'] against [y2 y2' y3 y3'], twiddles k = r, r+1
    // for lanes 0/2 and k = r+R, r+1+R for lanes 1/3.
    __m256d cr = _mm256_permute2f128_pd(ar, br, 0x20), dr = _mm256_permute2f128_pd(ar, br, 0x31);
    __m256d ci = _mm256_permute2f128_pd(ai, bi, 0x20), di = _mm256_permute2f128_pd(ai, bi, 0x31);
    const __m128d u0 = _mm_loadu_pd(tw2 + 2 * r), u1 = _mm_loadu_pd(tw2 + 2 * r + 2);
    const __m128d v0 = _mm_loadu_pd(tw2 + 2 * (r + rows));
    const __m128d v1 = _mm_loadu_pd(tw2 + 2 * (r + rows) + 2);
    butterfly<Avx2Lanes>(
        cr, ci, dr, di,
        _mm256_set_m128d(_mm_unpacklo_pd(v0, v1), _mm_unpacklo_pd(u0, u1)),
        _mm256_mul_pd(sign, _mm256_set_m128d(_mm_unpackhi_pd(v0, v1),
                                             _mm_unpackhi_pd(u0, u1))));
    // [z0 z2 z1 z3] per row → [z0 z1 z2 z3].
    constexpr int kOrder = _MM_SHUFFLE(3, 1, 2, 0);
    _mm256_storeu_pd(pr, _mm256_permute4x64_pd(_mm256_unpacklo_pd(cr, dr), kOrder));
    _mm256_storeu_pd(pr + kFftLanes, _mm256_permute4x64_pd(_mm256_unpackhi_pd(cr, dr), kOrder));
    _mm256_storeu_pd(pi, _mm256_permute4x64_pd(_mm256_unpacklo_pd(ci, di), kOrder));
    _mm256_storeu_pd(pi + kFftLanes, _mm256_permute4x64_pd(_mm256_unpackhi_pd(ci, di), kOrder));
  }
}

void cross_spectrum_avx2(const double* x, const double* y, double* out,
                         std::size_t bins, bool phat, double epsilon) {
  const std::size_t vec_bins = bins & ~std::size_t{1};
  const __m256d eps = _mm256_set1_pd(epsilon);
  std::size_t k = 0;
  for (; k < vec_bins; k += 2) {
    const __m256d xv = _mm256_loadu_pd(x + 2 * k);
    const __m256d yv = _mm256_loadu_pd(y + 2 * k);
    const __m256d yr = _mm256_movedup_pd(yv);
    const __m256d yi = _mm256_permute_pd(yv, 0b1111);
    const __m256d xswap = _mm256_permute_pd(xv, 0b0101);
    // c = x * conj(y): even lanes xr*yr + xi*yi, odd lanes xi*yr - xr*yi
    // (adding the negated product is the subtraction, rounding for
    // rounding).
    const __m256d c = _mm256_add_pd(
        _mm256_mul_pd(xv, yr),
        _mm256_xor_pd(_mm256_mul_pd(xswap, yi), odd_lane_sign_mask()));
    if (phat) {
      const __m256d sq = _mm256_mul_pd(c, c);
      const __m256d mag2 = _mm256_add_pd(sq, _mm256_permute_pd(sq, 0b0101));
      const __m256d mag = _mm256_sqrt_pd(mag2);
      const __m256d keep = _mm256_cmp_pd(mag, eps, _CMP_GT_OQ);
      // Lanes with |c| <= eps scale by 1/~0 (inf/NaN) and are masked to 0.
      const __m256d inv = _mm256_div_pd(_mm256_set1_pd(1.0), mag);
      _mm256_storeu_pd(out + 2 * k, _mm256_and_pd(keep, _mm256_mul_pd(c, inv)));
    } else {
      _mm256_storeu_pd(out + 2 * k, c);
    }
  }
  if (k < bins) {
    avx2_impl::cross_spectrum_generic(x + 2 * k, y + 2 * k, out + 2 * k,
                                      bins - k, phat, epsilon);
  }
}

void magnitudes_avx2(const double* x, std::size_t bins, double* out) {
  const std::size_t vec_bins = bins & ~std::size_t{3};
  std::size_t k = 0;
  for (; k < vec_bins; k += 4) {
    const __m256d a = _mm256_loadu_pd(x + 2 * k);      // c0, c1
    const __m256d b = _mm256_loadu_pd(x + 2 * k + 4);  // c2, c3
    const __m256d h =
        _mm256_hadd_pd(_mm256_mul_pd(a, a), _mm256_mul_pd(b, b));
    // hadd interleaves pairs as [m0, m2, m1, m3]; restore order.
    const __m256d mag2 = _mm256_permute4x64_pd(h, _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_pd(out + k, _mm256_sqrt_pd(mag2));
  }
  if (k < bins) avx2_impl::magnitudes_generic(x + 2 * k, bins - k, out + k);
}

void accumulate_avx2(double* acc, const double* src, std::size_t count) {
  const std::size_t vec_count = count & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < vec_count; i += 4) {
    _mm256_storeu_pd(
        acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), _mm256_loadu_pd(src + i)));
  }
  for (; i < count; ++i) acc[i] += src[i];
}

}  // namespace

const Kernels& avx2_kernels() noexcept {
  using avx2_impl::ScalarLanes;
  using avx2_impl::Sse2Lanes;
  static constexpr Kernels table{
      "avx2",
      &avx2_impl::scale_generic,
      &accumulate_avx2,
      &cross_spectrum_avx2,
      &magnitudes_avx2,
      &avx2_impl::rfft_unpack_generic,
      &avx2_impl::irfft_repack_generic,
      &avx2_impl::fft_lane_stages<Avx2Lanes>,
      &cross_stages_avx2,
      &avx2_impl::rfft_unpack_lanes<Avx2Lanes>,
      &avx2_impl::irfft_repack_lanes<Avx2Lanes>,
      &avx2_impl::phat_lanes<Avx2Lanes>,
      &avx2_impl::coherence_lanes<Avx2Lanes>,
      &avx2_impl::biquad_cascade_lanes<Avx2Lanes, Sse2Lanes, ScalarLanes>,
      &avx2_impl::fir_decimate_lanes<Avx2Lanes>,
  };
  return table;
}

}  // namespace headtalk::dsp::simd

#endif  // HEADTALK_SIMD_X86
