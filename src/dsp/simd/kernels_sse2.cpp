// SSE2-level kernels: lanes.inl compiled at the x86-64 SSE2 baseline with
// the autovectorizer enabled (default -O2 flags, no extra ISA options),
// the lane kernels 2 doubles or 4 floats per register. No FMA at this
// level, so every rounding matches the scalar reference bit-for-bit; only
// instruction selection differs.
#include "dsp/simd/kernels.h"

#if defined(HEADTALK_SIMD_X86)

#include <emmintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace headtalk::dsp::simd {

#define HEADTALK_SIMD_NS sse2_impl
#include "dsp/simd/lanes.inl"
#undef HEADTALK_SIMD_NS

const Kernels& sse2_kernels() noexcept {
  using sse2_impl::ScalarLanes;
  using sse2_impl::Sse2Lanes;
  using sse2_impl::Sse2LanesF;
  static constexpr Kernels table{
      "sse2",
      &sse2_impl::accumulate_generic,
      &sse2_impl::sum_squares_lanes<Sse2Lanes>,
      &sse2_impl::decode_f32_x86<sse2_impl::Sse2Decode>,
      &sse2_impl::biquad_cascade_lanes<Sse2Lanes, ScalarLanes<double>>,
      &sse2_impl::fir_decimate_lanes<Sse2Lanes>,
      sse2_impl::lane_kernels<Sse2Lanes>(),
      sse2_impl::lane_kernels<Sse2LanesF>(),
  };
  return table;
}

}  // namespace headtalk::dsp::simd

#endif  // HEADTALK_SIMD_X86
