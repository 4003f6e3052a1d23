// AVX2+FMA kernels. The butterfly / PHAT-weighting / magnitude / accumulate
// loops are hand-written intrinsics (the complex-multiply shuffle pattern
// defeats the autovectorizer's cost model); the rest reuse the generic
// bodies, which this TU's -mavx2 -mfma flags let the compiler vectorize.
//
// Numerics: fmaddsub/fmsubadd contract one multiply-add per complex
// product into a single rounding, so results differ from the scalar
// reference in the last ulps — inside the <=1e-9 relative contract
// enforced by tests/dsp/test_simd.cpp. Everything else (add/sub/sqrt/div)
// is IEEE-identical to scalar.
#include "dsp/simd/kernels.h"

#if defined(HEADTALK_SIMD_X86)

#include <immintrin.h>

#include <cmath>
#include <cstddef>

namespace headtalk::dsp::simd {

#define HEADTALK_SIMD_NS avx2_impl
#include "dsp/simd/kernels_impl.inl"
#undef HEADTALK_SIMD_NS

namespace {

// Sign mask that negates the imaginary (odd) lanes of an interleaved
// complex vector. _mm256_set_pd lists lanes high-to-low.
inline __m256d odd_lane_sign_mask() {
  return _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
}

void butterfly_stage_avx2(double* x, std::size_t n, std::size_t len,
                          std::size_t k_begin, std::size_t k_end,
                          const double* twiddles, bool conjugate) {
  const std::size_t half = len / 2;
  const std::size_t count = k_end - k_begin;
  if (count < 2) {
    avx2_impl::butterfly_stage_generic(x, n, len, k_begin, k_end, twiddles,
                                       conjugate);
    return;
  }
  const __m256d conj_mask =
      conjugate ? odd_lane_sign_mask() : _mm256_setzero_pd();
  const double sign = conjugate ? -1.0 : 1.0;
  const std::size_t vec_end = k_begin + (count & ~std::size_t{1});
  for (std::size_t i = 0; i < n; i += len) {
    double* a = x + 2 * (i + k_begin);
    double* b = x + 2 * (i + k_begin + half);
    const double* t = twiddles + 2 * k_begin;
    std::size_t k = k_begin;
    for (; k < vec_end; k += 2, a += 4, b += 4, t += 4) {
      const __m256d w = _mm256_xor_pd(_mm256_loadu_pd(t), conj_mask);
      const __m256d bv = _mm256_loadu_pd(b);
      const __m256d av = _mm256_loadu_pd(a);
      const __m256d wr = _mm256_movedup_pd(w);
      const __m256d wi = _mm256_permute_pd(w, 0b1111);
      const __m256d bswap = _mm256_permute_pd(bv, 0b0101);
      // v = b * w: even lanes br*wr - bi*wi, odd lanes bi*wr + br*wi.
      const __m256d v = _mm256_fmaddsub_pd(bv, wr, _mm256_mul_pd(bswap, wi));
      _mm256_storeu_pd(a, _mm256_add_pd(av, v));
      _mm256_storeu_pd(b, _mm256_sub_pd(av, v));
    }
    for (; k < k_end; ++k, a += 2, b += 2, t += 2) {
      const double wr = t[0];
      const double wi = sign * t[1];
      const double vr = b[0] * wr - b[1] * wi;
      const double vi = b[0] * wi + b[1] * wr;
      const double ur = a[0];
      const double ui = a[1];
      a[0] = ur + vr;
      a[1] = ui + vi;
      b[0] = ur - vr;
      b[1] = ui - vi;
    }
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
    // c = x * conj(y): even lanes xr*yr + xi*yi, odd lanes xi*yr - xr*yi.
    const __m256d c = _mm256_fmsubadd_pd(xv, yr, _mm256_mul_pd(xswap, yi));
    if (phat) {
      const __m256d sq = _mm256_mul_pd(c, c);
      const __m256d mag2 = _mm256_add_pd(sq, _mm256_permute_pd(sq, 0b0101));
      const __m256d mag = _mm256_sqrt_pd(mag2);
      const __m256d keep = _mm256_cmp_pd(mag, eps, _CMP_GT_OQ);
      // Lanes with |c| <= eps divide by ~0 (inf/NaN) and are masked to 0.
      _mm256_storeu_pd(out + 2 * k,
                       _mm256_and_pd(keep, _mm256_div_pd(c, mag)));
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
  static constexpr Kernels table{
      "avx2",
      &butterfly_stage_avx2,
      &avx2_impl::scale_generic,
      &accumulate_avx2,
      &cross_spectrum_avx2,
      &magnitudes_avx2,
      &avx2_impl::rfft_unpack_generic,
      &avx2_impl::irfft_repack_generic,
  };
  return table;
}

}  // namespace headtalk::dsp::simd

#endif  // HEADTALK_SIMD_X86
