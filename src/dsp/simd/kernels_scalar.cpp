// Scalar reference kernels. This TU is compiled with the loop and SLP
// vectorizers disabled (see src/dsp/CMakeLists.txt) so it is a genuine
// one-lane reference for the equivalence suite, not whatever the
// autovectorizer happened to emit.
#include "dsp/simd/kernels.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace headtalk::dsp::simd {

#define HEADTALK_KERNELS_NS scalar_impl
#include "dsp/simd/lanes.inl"
#undef HEADTALK_KERNELS_NS

const Kernels& scalar_kernels() noexcept {
  using scalar_impl::ScalarLanes;
  static constexpr Kernels table{
      "scalar",
      &scalar_impl::accumulate_generic,
      &scalar_impl::sum_squares_lanes<ScalarLanes<double>>,
      &scalar_impl::decode_f32_generic,
      &scalar_impl::biquad_cascade_lanes<ScalarLanes<double>>,
      &scalar_impl::fir_decimate_lanes<ScalarLanes<double>>,
      scalar_impl::lane_kernels<ScalarLanes<double>>(),
      scalar_impl::lane_kernels<ScalarLanes<float>>(),
  };
  return table;
}

}  // namespace headtalk::dsp::simd
