// SSE2-level kernels: the shared generic bodies compiled at the x86-64
// SSE2 baseline with the autovectorizer enabled (default -O2 flags, no
// extra ISA options). No FMA at this level, so every rounding matches the
// scalar reference bit-for-bit; only instruction selection differs.
#include "dsp/simd/kernels.h"

#if defined(HEADTALK_SIMD_X86)

#include <cmath>
#include <cstddef>

namespace headtalk::dsp::simd {

#define HEADTALK_SIMD_NS sse2_impl
#include "dsp/simd/kernels_impl.inl"
#undef HEADTALK_SIMD_NS

const Kernels& sse2_kernels() noexcept {
  static constexpr Kernels table{
      "sse2",
      &sse2_impl::butterfly_stage_generic,
      &sse2_impl::scale_generic,
      &sse2_impl::accumulate_generic,
      &sse2_impl::cross_spectrum_generic,
      &sse2_impl::magnitudes_generic,
      &sse2_impl::rfft_unpack_generic,
      &sse2_impl::irfft_repack_generic,
  };
  return table;
}

}  // namespace headtalk::dsp::simd

#endif  // HEADTALK_SIMD_X86
