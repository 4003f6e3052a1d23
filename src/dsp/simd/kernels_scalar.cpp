// Scalar reference kernels. This TU is compiled with the loop and SLP
// vectorizers disabled (see src/dsp/CMakeLists.txt) so it is a genuine
// one-lane reference for the equivalence suite, not whatever the
// autovectorizer happened to emit.
#include "dsp/simd/kernels.h"

#include <cmath>
#include <cstddef>

namespace headtalk::dsp::simd {

#define HEADTALK_SIMD_NS scalar_impl
#include "dsp/simd/kernels_impl.inl"
#undef HEADTALK_SIMD_NS

const Kernels& scalar_kernels() noexcept {
  static constexpr Kernels table{
      "scalar",
      &scalar_impl::butterfly_stage_generic,
      &scalar_impl::scale_generic,
      &scalar_impl::accumulate_generic,
      &scalar_impl::cross_spectrum_generic,
      &scalar_impl::magnitudes_generic,
      &scalar_impl::rfft_unpack_generic,
      &scalar_impl::irfft_repack_generic,
  };
  return table;
}

}  // namespace headtalk::dsp::simd
