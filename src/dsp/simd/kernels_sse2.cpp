// SSE2-level kernels: the shared generic bodies compiled at the x86-64
// SSE2 baseline with the autovectorizer enabled (default -O2 flags, no
// extra ISA options), and the lane kernels two lanes per register. No FMA
// at this level, so every rounding matches the scalar reference
// bit-for-bit; only instruction selection differs.
#include "dsp/simd/kernels.h"

#if defined(HEADTALK_SIMD_X86)

#include <emmintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace headtalk::dsp::simd {

#define HEADTALK_SIMD_NS sse2_impl
#include "dsp/simd/kernels_impl.inl"
#include "dsp/simd/lanes.inl"
#undef HEADTALK_SIMD_NS

const Kernels& sse2_kernels() noexcept {
  using sse2_impl::ScalarLanes;
  using sse2_impl::Sse2Lanes;
  static constexpr Kernels table{
      "sse2",
      &sse2_impl::scale_generic,
      &sse2_impl::accumulate_generic,
      &sse2_impl::cross_spectrum_generic,
      &sse2_impl::magnitudes_generic,
      &sse2_impl::rfft_unpack_generic,
      &sse2_impl::irfft_repack_generic,
      &sse2_impl::fft_lane_stages<Sse2Lanes>,
      &sse2_impl::cross_stages_generic,
      &sse2_impl::rfft_unpack_lanes<Sse2Lanes>,
      &sse2_impl::irfft_repack_lanes<Sse2Lanes>,
      &sse2_impl::phat_lanes<Sse2Lanes>,
      &sse2_impl::coherence_lanes<Sse2Lanes>,
      &sse2_impl::biquad_cascade_lanes<Sse2Lanes, ScalarLanes>,
      &sse2_impl::fir_decimate_lanes<Sse2Lanes>,
  };
  return table;
}

}  // namespace headtalk::dsp::simd

#endif  // HEADTALK_SIMD_X86
