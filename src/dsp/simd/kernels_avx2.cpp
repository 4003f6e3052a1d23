// AVX2 kernels, and every intrinsic of the kernel layer. The lane kernels
// run 4 doubles or 8 floats per register, the biquad cascade four channels
// or sections (the ragged channels one at a time), the FIR decimator four
// outputs and `sum_squares` four partial sums per register (lanes.inl
// with the policies below); `accumulate` is a hand-written intrinsics
// loop, and `decode_f32` checks eight samples per compare and widens four
// per cvtps2pd.
//
// Numerics: this TU is built with -mavx2 alone and -ffp-contract=off (see
// src/dsp/CMakeLists.txt): no multiply and add are ever fused into one
// rounding, so every kernel computes the scalar reference's bits.
#include "dsp/simd/kernels.h"

#if defined(HEADTALK_X86)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace headtalk::dsp::simd {

#define HEADTALK_KERNELS_NS avx2_impl
#include "dsp/simd/lanes.inl"
#undef HEADTALK_KERNELS_NS

namespace {

struct Avx2Lanes {
  using T = double;
  using Vec = __m256d;
  static constexpr std::size_t kWidth = 4;
  static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Vec broadcast(double x) { return _mm256_set1_pd(x); }
  /// The order as 32-bit word indices (each double is a pair of words), so
  /// one cross-lane permute reads a whole row through it; rows narrower
  /// than the register are broadcast first.
  struct Order {
    __m256i index;
    std::size_t width;
  };
  static Order prepare(const std::uint32_t* o, std::size_t width) {
    return {_mm256_setr_epi32(static_cast<int>(2 * o[0]), static_cast<int>(2 * o[0] + 1),
                              static_cast<int>(2 * o[1]), static_cast<int>(2 * o[1] + 1),
                              static_cast<int>(2 * o[2]), static_cast<int>(2 * o[2] + 1),
                              static_cast<int>(2 * o[3]), static_cast<int>(2 * o[3] + 1)),
            width};
  }
  static Vec load_ordered(const double* row, const Order& order, std::size_t /*l*/) {
    __m256i v;
    if (order.width >= 4) {
      v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row));
    } else if (order.width == 2) {
      v = _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(row)));
    } else {
      v = _mm256_castpd_si256(_mm256_broadcast_sd(row));
    }
    return _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(v, order.index));
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
  /// The 4 × 4 transpose: out[j] = lane j of a, b, c, d.
  static void transpose(Vec a, Vec b, Vec c, Vec d, Vec* out) {
    const Vec ab0 = _mm256_unpacklo_pd(a, b);  // a0 b0 a2 b2
    const Vec ab1 = _mm256_unpackhi_pd(a, b);  // a1 b1 a3 b3
    const Vec cd0 = _mm256_unpacklo_pd(c, d);
    const Vec cd1 = _mm256_unpackhi_pd(c, d);
    out[0] = _mm256_permute2f128_pd(ab0, cd0, 0x20);
    out[1] = _mm256_permute2f128_pd(ab1, cd1, 0x20);
    out[2] = _mm256_permute2f128_pd(ab0, cd0, 0x31);
    out[3] = _mm256_permute2f128_pd(ab1, cd1, 0x31);
  }
  static void load_block(const double* const* src, std::size_t i, Vec* v) {
    transpose(load(src[0] + i), load(src[1] + i), load(src[2] + i), load(src[3] + i), v);
  }
  static void store_block(double* const* dst, std::size_t i, const Vec* v) {
    Vec rows[4];
    transpose(v[0], v[1], v[2], v[3], rows);
    for (std::size_t j = 0; j < 4; ++j) store(dst[j] + i, rows[j]);
  }
  static Vec shift_up(Vec v, Vec& carry) {
    const Vec rotated = _mm256_permute4x64_pd(v, _MM_SHUFFLE(2, 1, 0, 3));  // v3 v0 v1 v2
    const Vec shifted = _mm256_blend_pd(rotated, carry, 0b0001);
    carry = rotated;
    return shifted;
  }
  template <std::size_t l>
  static double lane(Vec v) {
    const __m128d half = l < 2 ? _mm256_castpd256_pd128(v) : _mm256_extractf128_pd(v, 1);
    return _mm_cvtsd_f64(l % 2 == 0 ? half : _mm_unpackhi_pd(half, half));
  }
  static Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) { return _mm256_div_pd(a, b); }
  static Vec sqrt(Vec a) { return _mm256_sqrt_pd(a); }
  static Vec keep_gt(Vec mag, Vec eps, Vec value) {
    return _mm256_and_pd(_mm256_cmp_pd(mag, eps, _CMP_GT_OQ), value);
  }
  template <std::size_t G>
  static void twiddles(const double* w, Vec& wr, Vec& wi) {
    if constexpr (G >= kWidth) {
      wr = broadcast(w[0]);
      wi = broadcast(w[1]);
    } else if constexpr (G == 2) {
      const Vec a = load(w);  // r0 i0 r1 i1
      wr = _mm256_permute4x64_pd(a, _MM_SHUFFLE(2, 2, 0, 0));
      wi = _mm256_permute4x64_pd(a, _MM_SHUFFLE(3, 3, 1, 1));
    } else {
      const Vec a = load(w), b = load(w + 4);  // r0 i0 r1 i1, r2 i2 r3 i3
      constexpr int kOrder = _MM_SHUFFLE(3, 1, 2, 0);
      wr = _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), kOrder);
      wi = _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), kOrder);
    }
  }
  template <std::size_t G>
  static Vec reverse_rows(Vec v) {
    if constexpr (G >= kWidth) {
      return v;
    } else if constexpr (G == 2) {
      return _mm256_permute2f128_pd(v, v, 1);
    } else {
      return _mm256_permute4x64_pd(v, _MM_SHUFFLE(0, 1, 2, 3));
    }
  }
  using Wide = Avx2Lanes;
  static constexpr std::size_t kWideParts = 1;
  template <class W>
  static void widen(Vec v, W* parts) {
    parts[0] = v;
  }
  /// pack_lanes' row permutation (see pack_parts) as 32-bit word
  /// indices into each of the row's two registers of values, and the lanes
  /// taken from the second.
  struct Permutation {
    __m256i re_index, im_index;
    __m256d re_high, im_high;
  };
  static Permutation prepare_row(const std::uint32_t* from) {
    std::int32_t index[2][8];
    std::int64_t high[2][4];
    for (std::size_t h = 0; h < 2; ++h) {
      for (std::size_t l = 0; l < 4; ++l) {
        const std::uint32_t f = from[4 * h + l];
        index[h][2 * l] = static_cast<std::int32_t>(2 * (f % 4));
        index[h][2 * l + 1] = static_cast<std::int32_t>(2 * (f % 4) + 1);
        high[h][l] = f >= 4 ? -1 : 0;
      }
    }
    const auto load_index = [](const std::int32_t* i) {
      return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(i));
    };
    const auto load_high = [](const std::int64_t* m) {
      return _mm256_castsi256_pd(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(m)));
    };
    return {load_index(index[0]), load_index(index[1]), load_high(high[0]),
            load_high(high[1])};
  }
  /// Row values [4i, 4i + 4) of P parts: signal 4i / 2P from first +
  /// 4i % 2P on, or, for one part, signals 2i and 2i + 1 at first; zero for
  /// the signals past `used`.
  template <std::size_t P>
  static Vec row_piece(const double* const* x, std::size_t used, std::size_t first,
                       std::size_t i) {
    if constexpr (P == 1) {
      const auto pair = [&](std::size_t g) {
        return g < used ? _mm_loadu_pd(x[g] + first) : _mm_setzero_pd();
      };
      return _mm256_insertf128_pd(_mm256_castpd128_pd256(pair(2 * i)), pair(2 * i + 1),
                                  1);
    } else {
      const std::size_t g = 4 * i / (2 * P);
      return g < used ? load(x[g] + first + 4 * i % (2 * P)) : _mm256_setzero_pd();
    }
  }
  template <std::size_t P>
  static void pack_row(const double* const* x, std::size_t used, std::size_t first,
                       const Permutation& p, double* re, double* im) {
    const Vec a = row_piece<P>(x, used, first, 0), b = row_piece<P>(x, used, first, 1);
    const auto permute = [](Vec v, __m256i index) {
      return _mm256_castsi256_pd(
          _mm256_permutevar8x32_epi32(_mm256_castpd_si256(v), index));
    };
    const auto pick = [&](__m256i index, Vec high) {
      return _mm256_blendv_pd(permute(a, index), permute(b, index), high);
    };
    store(re, pick(p.re_index, p.re_high));
    store(im, pick(p.im_index, p.im_high));
  }
};

/// Eight floats per register.
struct Avx2LanesF {
  using T = float;
  using Vec = __m256;
  static constexpr std::size_t kWidth = 8;
  static Vec load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static Vec broadcast(float x) { return _mm256_set1_ps(x); }
  /// The order as a permute index; rows narrower than the register are
  /// broadcast first.
  struct Order {
    __m256i index;
    std::size_t width;
  };
  static Order prepare(const std::uint32_t* o, std::size_t width) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(o)), width};
  }
  static Vec load_ordered(const float* row, const Order& order, std::size_t /*l*/) {
    Vec v;
    if (order.width >= 8) {
      v = _mm256_loadu_ps(row);
    } else if (order.width == 4) {
      v = _mm256_broadcast_ps(reinterpret_cast<const __m128*>(row));
    } else if (order.width == 2) {
      const __m128i pair = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row));
      v = _mm256_castsi256_ps(_mm256_broadcastq_epi64(pair));
    } else {
      v = _mm256_broadcast_ss(row);
    }
    return _mm256_permutevar8x32_ps(v, order.index);
  }
  static Vec add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_ps(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  static Vec div(Vec a, Vec b) { return _mm256_div_ps(a, b); }
  static Vec sqrt(Vec a) { return _mm256_sqrt_ps(a); }
  static Vec keep_gt(Vec mag, Vec eps, Vec value) {
    return _mm256_and_ps(_mm256_cmp_ps(mag, eps, _CMP_GT_OQ), value);
  }
  template <std::size_t G>
  static void twiddles(const float* w, Vec& wr, Vec& wi) {
    if constexpr (G >= kWidth) {
      wr = broadcast(w[0]);
      wi = broadcast(w[1]);
    } else if constexpr (G == 4) {
      const Vec a = _mm256_castps128_ps256(_mm_loadu_ps(w));  // r0 i0 r1 i1
      wr = _mm256_permutevar8x32_ps(a, _mm256_setr_epi32(0, 0, 0, 0, 2, 2, 2, 2));
      wi = _mm256_permutevar8x32_ps(a, _mm256_setr_epi32(1, 1, 1, 1, 3, 3, 3, 3));
    } else if constexpr (G == 2) {
      const Vec a = load(w);  // r0 i0 … r3 i3
      wr = _mm256_permutevar8x32_ps(a, _mm256_setr_epi32(0, 0, 2, 2, 4, 4, 6, 6));
      wi = _mm256_permutevar8x32_ps(a, _mm256_setr_epi32(1, 1, 3, 3, 5, 5, 7, 7));
    } else {
      // [r0 r1 r4 r5 | r2 r3 r6 r7] pairs, put in order by 64-bit chunk.
      const Vec a = load(w), b = load(w + 8);
      constexpr int kOrder = _MM_SHUFFLE(3, 1, 2, 0);
      wr = _mm256_castpd_ps(_mm256_permute4x64_pd(
          _mm256_castps_pd(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0))), kOrder));
      wi = _mm256_castpd_ps(_mm256_permute4x64_pd(
          _mm256_castps_pd(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1))), kOrder));
    }
  }
  template <std::size_t G>
  static Vec reverse_rows(Vec v) {
    if constexpr (G >= kWidth) {
      return v;
    } else if constexpr (G == 4) {
      return _mm256_permute2f128_ps(v, v, 1);
    } else if constexpr (G == 2) {
      return _mm256_permutevar8x32_ps(v, _mm256_setr_epi32(6, 7, 4, 5, 2, 3, 0, 1));
    } else {
      return _mm256_permutevar8x32_ps(v, _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0));
    }
  }
  using Wide = Avx2Lanes;
  static constexpr std::size_t kWideParts = 2;
  template <class W>
  static void widen(Vec v, W* parts) {
    parts[0] = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    parts[1] = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
  }
  /// pack_lanes' row permutation (see pack_parts) as permute indices
  /// into each of the row's two registers of values, and the lanes taken
  /// from the second.
  struct Permutation {
    __m256i re_index, im_index;
    __m256 re_high, im_high;
  };
  static Permutation prepare_row(const std::uint32_t* from) {
    const __m256i re = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(from));
    const __m256i im = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(from + 8));
    const __m256i seven = _mm256_set1_epi32(7);
    return {_mm256_and_si256(re, seven), _mm256_and_si256(im, seven),
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(re, seven)),
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(im, seven))};
  }
  /// Row values [4i, 4i + 4) of P parts as floats: signal 4i / 2P from
  /// first + 4i % 2P on, or, for one part, signals 2i and 2i + 1 at first;
  /// zero for the signals past `used`.
  template <std::size_t P>
  static __m128 row_piece(const double* const* x, std::size_t used, std::size_t first,
                          std::size_t i) {
    if constexpr (P == 1) {
      const auto pair = [&](std::size_t g) {
        return g < used ? _mm_cvtpd_ps(_mm_loadu_pd(x[g] + first)) : _mm_setzero_ps();
      };
      return _mm_movelh_ps(pair(2 * i), pair(2 * i + 1));
    } else {
      const std::size_t g = 4 * i / (2 * P);
      return g < used ? _mm256_cvtpd_ps(_mm256_loadu_pd(x[g] + first + 4 * i % (2 * P)))
                      : _mm_setzero_ps();
    }
  }
  template <std::size_t P>
  static void pack_row(const double* const* x, std::size_t used, std::size_t first,
                       const Permutation& p, float* re, float* im) {
    const auto both = [&](std::size_t i) {
      return _mm256_insertf128_ps(_mm256_castps128_ps256(row_piece<P>(x, used, first, i)),
                                  row_piece<P>(x, used, first, i + 1), 1);
    };
    const __m256 a = both(0), b = both(2);
    const auto pick = [&](__m256i index, __m256 high) {
      return _mm256_blendv_ps(_mm256_permutevar8x32_ps(a, index),
                              _mm256_permutevar8x32_ps(b, index), high);
    };
    _mm256_storeu_ps(re, pick(p.re_index, p.re_high));
    _mm256_storeu_ps(im, pick(p.im_index, p.im_high));
  }
};

/// Whether none of the `count` samples at p is NaN or ±Inf: eight samples
/// per compare, the last < 16 through f32_all_finite.
bool f32_all_finite_avx2(const std::uint8_t* p, std::size_t count) {
  const __m256i exponent = _mm256_set1_epi32(static_cast<int>(avx2_impl::kF32Exponent));
  __m256i bad0 = _mm256_setzero_si256(), bad1 = bad0;
  const auto check = [&](std::size_t i) {
    const auto* at = reinterpret_cast<const __m256i*>(p + i * sizeof(float));
    const __m256i v = _mm256_loadu_si256(at);
    return _mm256_cmpeq_epi32(_mm256_and_si256(v, exponent), exponent);
  };
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    bad0 = _mm256_or_si256(bad0, check(i));
    bad1 = _mm256_or_si256(bad1, check(i + 8));
  }
  return _mm256_testz_si256(_mm256_or_si256(bad0, bad1), _mm256_set1_epi32(-1)) &&
         avx2_impl::f32_all_finite(p + i * sizeof(float), count - i);
}

/// Kernels::decode_f32 on x86, a little-endian host: every payload read is
/// an unaligned vector load or a memcpy. The per-channel outputs take four
/// frames per step, widened by one cvtps2pd: one channel directly, two
/// through a deinterleaving shuffle, and 4k channels as k 4 × 4
/// transposes; any other count, and the ragged frames, one sample at a time.
bool decode_f32_avx2(const std::uint8_t* payload, std::size_t frames,
                     std::size_t channels, double* const* channel_out,
                     float* interleaved_out) {
  const std::size_t count = frames * channels;
  if (!f32_all_finite_avx2(payload, count)) return false;
  if (interleaved_out != nullptr) {
    std::memcpy(interleaved_out, payload, count * sizeof(float));
  }
  if (channel_out == nullptr) return true;
  const auto load = [payload](std::size_t i) {
    return _mm_loadu_ps(reinterpret_cast<const float*>(payload + i * sizeof(float)));
  };
  const auto store4 = [](double* out, __m128 v) {
    _mm256_storeu_pd(out, _mm256_cvtps_pd(v));
  };
  std::size_t f = 0;
  if (channels == 1) {
    for (; f + 4 <= frames; f += 4) store4(channel_out[0] + f, load(f));
  } else if (channels == 2) {
    for (; f + 4 <= frames; f += 4) {
      const __m128 a = load(2 * f), b = load(2 * f + 4);  // l0 r0 l1 r1, l2 r2 l3 r3
      store4(channel_out[0] + f, _mm_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)));
      store4(channel_out[1] + f, _mm_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)));
    }
  } else if (channels % 4 == 0) {
    for (; f + 4 <= frames; f += 4) {
      for (std::size_t c = 0; c < channels; c += 4) {
        __m128 r0 = load(f * channels + c), r1 = load((f + 1) * channels + c);
        __m128 r2 = load((f + 2) * channels + c), r3 = load((f + 3) * channels + c);
        _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
        store4(channel_out[c] + f, r0);
        store4(channel_out[c + 1] + f, r1);
        store4(channel_out[c + 2] + f, r2);
        store4(channel_out[c + 3] + f, r3);
      }
    }
  }
  avx2_impl::decode_f32_frames(payload, f, frames, channels, channel_out);
  return true;
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
      &accumulate_avx2,
      &avx2_impl::sum_squares_lanes<Avx2Lanes>,
      &decode_f32_avx2,
      &avx2_impl::biquad_cascade_lanes<Avx2Lanes>,
      &avx2_impl::fir_decimate_lanes<Avx2Lanes>,
      avx2_impl::lane_kernels<Avx2Lanes>(),
      avx2_impl::lane_kernels<Avx2LanesF>(),
  };
  return table;
}

}  // namespace headtalk::dsp::simd

#endif  // HEADTALK_X86
