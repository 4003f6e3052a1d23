// Runtime SIMD dispatch for the DSP hot-path kernels.
//
// The scoring hot path (the lane FFT stages, GCC-PHAT weighting, the
// band-pass cascade, the directivity decimator) runs the same few inner
// loops millions of times per second. Each loop has one reference
// implementation (scalar, compiled with vectorization disabled) and an
// AVX2 variant built from the same source, so both levels compute the
// same algorithm. The active level is picked once per process from CPUID:
// AVX2 when the CPU has it, the scalar reference otherwise.
//
// Numerical contract: both levels agree bit for bit on every kernel, in
// both element types of the lane kernels — float64 (4 lanes per AVX2
// register) and float32 (8 lanes per AVX2 register). No level fuses a
// multiply and an add (the AVX2 TU is built without FMA and with
// -ffp-contract=off), and vectors hold independent signals — the channels
// or sections of the biquad cascade, the channels / microphone pairs /
// transform parts of the lane FFT (one-signal transforms included: a
// signal rides as parts), the outputs of the FIR decimator (each summing
// its taps in tap order) — or independent rows or elements. The one
// reduction split across lanes, sum_squares, fixes its order for every
// width: 16 partial sums, folded pairwise. So each lane evaluates the
// scalar expression tree, and every transform, GCC window and feature
// equals the scalar reference exactly. The equivalence suites
// (tests/dsp/test_simd.cpp, tests/dsp/test_fft_lanes.cpp,
// tests/dsp/test_fir.cpp, ctest label `simd-equivalence`) enforce this by
// sweeping both levels in-process through set_level.
#pragma once

#include "dsp/simd/kernels.h"

namespace headtalk::dsp::simd {

enum class Level { kScalar = 0, kAvx2 = 1 };

[[nodiscard]] const char* level_name(Level level) noexcept;

/// Highest level this CPU can execute (compile-time capped on non-x86).
[[nodiscard]] Level max_supported_level() noexcept;

/// The level the kernels currently dispatch to. First use resolves it to
/// max_supported_level().
[[nodiscard]] Level active_level() noexcept;

/// Forces a dispatch level (clamped to max_supported_level()); returns the
/// previous level. For tests that sweep levels in-process — not intended
/// for concurrent use while transforms are in flight on other threads.
Level set_level(Level level) noexcept;

/// Kernel table of the active level. The pointer stays valid forever
/// (tables are immutable statics); re-fetch after set_level().
[[nodiscard]] const Kernels& kernels() noexcept;

}  // namespace headtalk::dsp::simd
