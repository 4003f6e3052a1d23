// Scalar reference kernels. This TU is compiled with the loop and SLP
// vectorizers disabled (see src/dsp/CMakeLists.txt) so it is a genuine
// one-lane reference for the equivalence suite, not whatever the
// autovectorizer happened to emit.
#include "dsp/simd/kernels.h"

#if defined(HEADTALK_SIMD_X86)
#include <emmintrin.h>  // lanes.inl declares its SSE2 policy on x86
#endif

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace headtalk::dsp::simd {

#define HEADTALK_SIMD_NS scalar_impl
#include "dsp/simd/kernels_impl.inl"
#include "dsp/simd/lanes.inl"
#undef HEADTALK_SIMD_NS

const Kernels& scalar_kernels() noexcept {
  using scalar_impl::ScalarLanes;
  static constexpr Kernels table{
      "scalar",
      &scalar_impl::scale_generic,
      &scalar_impl::accumulate_generic,
      &scalar_impl::cross_spectrum_generic,
      &scalar_impl::magnitudes_generic,
      &scalar_impl::rfft_unpack_generic,
      &scalar_impl::irfft_repack_generic,
      &scalar_impl::fft_lane_stages<ScalarLanes>,
      &scalar_impl::cross_stages_generic,
      &scalar_impl::rfft_unpack_lanes<ScalarLanes>,
      &scalar_impl::irfft_repack_lanes<ScalarLanes>,
      &scalar_impl::phat_lanes<ScalarLanes>,
      &scalar_impl::coherence_lanes<ScalarLanes>,
      &scalar_impl::biquad_cascade_lanes<ScalarLanes>,
      &scalar_impl::fir_decimate_lanes<ScalarLanes>,
  };
  return table;
}

}  // namespace headtalk::dsp::simd
