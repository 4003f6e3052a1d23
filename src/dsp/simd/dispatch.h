// Runtime SIMD dispatch for the DSP hot-path kernels.
//
// The scoring hot path (the lane FFT stages, GCC-PHAT weighting, the
// band-pass cascade, the directivity decimator) runs the same few inner
// loops millions of times per second. Each loop has one reference
// implementation (scalar, compiled with vectorization disabled) and
// ISA-tuned variants (SSE2, AVX2) built from the same source so every
// level computes the same algorithm. The active level is picked once per
// process: the best level the CPU supports (CPUID), clamped by the
// HEADTALK_SIMD environment variable.
//
//   HEADTALK_SIMD=off|scalar   force the scalar reference kernels
//   HEADTALK_SIMD=sse2         cap at SSE2
//   HEADTALK_SIMD=avx2         cap at AVX2 (errors down to best supported)
//   unset / auto               best supported level
//
// Numerical contract: all levels agree bit for bit on every kernel, in
// both element types of the lane kernels — float64 (4 lanes per AVX2
// register) and float32 (8 lanes per AVX2 register, 4 per SSE2 register).
// No level fuses a multiply and an add (the AVX2 TU is built without FMA
// and with -ffp-contract=off), and vectors hold independent signals — the
// channels or sections of the biquad cascade, the channels / microphone
// pairs / transform parts of the lane FFT (one-signal transforms included:
// a signal rides as parts), the outputs of the FIR decimator (each summing
// its taps in tap order) — or independent rows or elements. The one
// reduction split across lanes, sum_squares, fixes its order for every
// width: 16 partial sums, folded pairwise. So each lane evaluates the
// scalar expression tree, and every transform, GCC window and feature
// equals the scalar reference exactly. The equivalence suites
// (tests/dsp/test_simd.cpp, tests/dsp/test_fft_lanes.cpp,
// tests/dsp/test_fir.cpp, ctest label `simd-equivalence`) enforce this on
// every level the host supports.
#pragma once

#include "dsp/simd/kernels.h"

namespace headtalk::dsp::simd {

enum class Level { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

[[nodiscard]] const char* level_name(Level level) noexcept;

/// Parses a HEADTALK_SIMD value; returns false for unknown spellings.
/// Accepts "off"/"scalar"/"none" (scalar), "sse2", "avx2", "auto"/"best"
/// (best supported), case-sensitive lower-case like the rest of the env.
bool parse_level(const char* text, Level& out, bool& is_auto) noexcept;

/// Highest level this CPU can execute (compile-time capped on non-x86).
[[nodiscard]] Level max_supported_level() noexcept;

/// The level the kernels currently dispatch to. First call resolves it
/// from CPUID + $HEADTALK_SIMD and latches the result.
[[nodiscard]] Level active_level() noexcept;

/// Forces a dispatch level (clamped to max_supported_level()); returns the
/// previous level. For tests that sweep levels in-process — not intended
/// for concurrent use while transforms are in flight on other threads.
Level set_level(Level level) noexcept;

/// Kernel table of the active level. The pointer stays valid forever
/// (tables are immutable statics); re-fetch after set_level().
[[nodiscard]] const Kernels& kernels() noexcept;

}  // namespace headtalk::dsp::simd
