// AVX2 level of Kernels::biquad_cascade: four channels per register, the
// ragged tail in SSE2 pairs and single lanes.
//
// This kernel lives apart from kernels_avx2.cpp because that TU is built
// with -mfma, which lets the compiler fuse a multiply and an add into one
// rounding. The cascade must round exactly like dsp::Biquad::process, so
// this TU is built with -mavx2 alone and -ffp-contract=off (see
// src/dsp/CMakeLists.txt).
#include "dsp/simd/kernels.h"

#if defined(HEADTALK_SIMD_X86)

#include <immintrin.h>

#include <cstddef>

namespace headtalk::dsp::simd {

#define HEADTALK_SIMD_NS avx2_biquad_impl
#include "dsp/simd/biquad_lanes.inl"
#undef HEADTALK_SIMD_NS

namespace {

struct Avx2Lanes {
  using Vec = __m256d;
  static constexpr std::size_t kWidth = 4;
  static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Vec broadcast(double x) { return _mm256_set1_pd(x); }
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
};

}  // namespace

void biquad_cascade_avx2(const double* coeffs, std::size_t sections, double* state,
                         std::size_t lanes, const double* const* in,
                         double* const* out, std::size_t frames) {
  avx2_biquad_impl::biquad_cascade_lanes<Avx2Lanes, avx2_biquad_impl::Sse2Lanes,
                                         avx2_biquad_impl::ScalarLanes>(
      coeffs, sections, state, lanes, in, out, frames);
}

}  // namespace headtalk::dsp::simd

#endif  // HEADTALK_SIMD_X86
