// Scalar-vs-SIMD equivalence suite (ctest label `simd-equivalence`).
//
// Every kernel-backed DSP entry point is swept across all dispatch levels
// the host supports and compared against the scalar reference bit for bit:
// no level fuses a multiply and an add, and the transforms put signals in
// vector lanes instead of reordering any sum, so transforms, GCC/SRP
// windows and the multichannel biquad cascade all give the scalar bits.
// The suite is run twice by ctest: once under HEADTALK_SIMD=off (scalar
// startup resolution) and once at the native best level.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/incremental_extractor.h"
#include "dsp/biquad.h"
#include "dsp/correlation.h"
#include "dsp/fft.h"
#include "dsp/fractional_delay.h"
#include "dsp/simd/dispatch.h"

namespace headtalk::dsp {
namespace {

/// Forces a dispatch level for one scope, restoring the previous level.
class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level) : previous_(simd::set_level(level)) {}
  ~ScopedLevel() { simd::set_level(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  simd::Level previous_;
};

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  const auto max = static_cast<int>(simd::max_supported_level());
  for (int l = 1; l <= max; ++l) levels.push_back(static_cast<simd::Level>(l));
  return levels;
}

std::vector<audio::Sample> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<audio::Sample> x(n);
  for (auto& v : x) v = u(rng);
  return x;
}

audio::MultiBuffer delayed_capture(std::size_t channels, std::size_t frames,
                                   unsigned seed) {
  const auto base = random_signal(frames, seed);
  std::vector<audio::Buffer> bufs;
  for (std::size_t k = 0; k < channels; ++k) {
    bufs.emplace_back(fractional_delay(base, static_cast<double>(k)), 48000.0);
  }
  return audio::MultiBuffer(std::move(bufs));
}

/// Exact equality: the first differing element fails with both bit patterns.
void expect_bits_equal(const std::vector<double>& got, const std::vector<double>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    const auto got_bits = std::bit_cast<std::uint64_t>(got[k]);
    const auto want_bits = std::bit_cast<std::uint64_t>(want[k]);
    if (got_bits != want_bits) {
      EXPECT_EQ(got_bits, want_bits)
          << what << " index " << k << ": " << got[k] << " vs " << want[k];
      return;
    }
  }
}

/// Interleaved re, im of a complex sequence, for exact comparison.
std::vector<double> complex_parts(const std::vector<Complex>& values) {
  std::vector<double> parts;
  for (const Complex& v : values) {
    parts.push_back(v.real());
    parts.push_back(v.imag());
  }
  return parts;
}

TEST(SimdDispatch, ParsesAllSpellings) {
  simd::Level level{};
  bool is_auto = false;
  for (const char* spelling : {"off", "scalar", "none"}) {
    ASSERT_TRUE(simd::parse_level(spelling, level, is_auto)) << spelling;
    EXPECT_EQ(level, simd::Level::kScalar);
    EXPECT_FALSE(is_auto);
  }
  ASSERT_TRUE(simd::parse_level("sse2", level, is_auto));
  EXPECT_EQ(level, simd::Level::kSse2);
  ASSERT_TRUE(simd::parse_level("avx2", level, is_auto));
  EXPECT_EQ(level, simd::Level::kAvx2);
  for (const char* spelling : {"auto", "best"}) {
    ASSERT_TRUE(simd::parse_level(spelling, level, is_auto)) << spelling;
    EXPECT_TRUE(is_auto);
  }
  EXPECT_FALSE(simd::parse_level("avx512", level, is_auto));
  EXPECT_FALSE(simd::parse_level("", level, is_auto));
  EXPECT_FALSE(simd::parse_level("AVX2", level, is_auto));  // lower-case only
}

TEST(SimdDispatch, SetLevelClampsAndRestores) {
  const simd::Level original = simd::active_level();
  const simd::Level previous = simd::set_level(simd::Level::kAvx2);
  EXPECT_EQ(previous, original);
  EXPECT_LE(static_cast<int>(simd::active_level()),
            static_cast<int>(simd::max_supported_level()));
  simd::set_level(simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_STREQ(simd::kernels().name, "scalar");
  simd::set_level(original);
  EXPECT_EQ(simd::active_level(), original);
}

TEST(SimdEquivalence, ForwardInverseFftAcrossLevels) {
  const auto x = random_signal(1000, 11);
  ScopedLevel scalar(simd::Level::kScalar);
  const HalfSpectrum reference = rfft_half(x, 2048);
  const auto reference_inverse = irfft_half(reference, x.size());
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    const std::string at = std::string(" at level ") + simd::level_name(level);
    const HalfSpectrum spectrum = rfft_half(x, 2048);
    expect_bits_equal(complex_parts(spectrum.bins), complex_parts(reference.bins),
                      "rfft_half" + at);
    expect_bits_equal(irfft_half(spectrum, x.size()), reference_inverse, "irfft_half" + at);
  }
}

TEST(SimdEquivalence, MagnitudeSpectrumAcrossLevels) {
  const auto x = random_signal(700, 12);
  ScopedLevel scalar(simd::Level::kScalar);
  const auto reference = magnitude_spectrum(x, 1024);
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    expect_bits_equal(magnitude_spectrum(x, 1024), reference,
                      std::string("magnitude_spectrum at level ") + simd::level_name(level));
  }
}

TEST(SimdEquivalence, PrunedInverseWindowMatchesFullSlice) {
  // The lag-windowed inverse must agree with slicing the full inverse bit
  // for bit — for every level and for windows from tiny to nearly the
  // whole transform (the pruning degenerates to a full inverse at the top
  // end).
  const auto x = random_signal(900, 13);
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    const HalfSpectrum spectrum = rfft_half(x, 1024);
    const auto full = irfft_half(spectrum, 0);
    FftScratch scratch;
    std::vector<double> window;
    for (const int max_lag : {1, 5, 13, 100, 511}) {
      irfft_half_window_into(spectrum, max_lag, window, scratch);
      ASSERT_EQ(window.size(), static_cast<std::size_t>(2 * max_lag + 1));
      std::vector<double> want;
      for (int lag = -max_lag; lag <= max_lag; ++lag) {
        want.push_back(full[lag >= 0 ? static_cast<std::size_t>(lag)
                                     : full.size() - static_cast<std::size_t>(-lag)]);
      }
      expect_bits_equal(window, want,
                        "max_lag " + std::to_string(max_lag) + " at level " +
                            simd::level_name(level));
    }
  }
}

TEST(SimdEquivalence, GccPhatValuesAndPeakLagAcrossLevels) {
  const auto x = random_signal(1500, 14);
  const auto y = fractional_delay(x, 3.0);
  ScopedLevel scalar(simd::Level::kScalar);
  const CorrelationSequence reference = gcc_phat(x, y, 13);
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    const CorrelationSequence gcc = gcc_phat(x, y, 13);
    EXPECT_EQ(gcc.peak_lag(), reference.peak_lag())
        << "at level " << simd::level_name(level);
    expect_bits_equal(gcc.values, reference.values,
                      std::string("gcc_phat at level ") + simd::level_name(level));
  }
}

TEST(SimdEquivalence, DenseSrpAcrossLevels) {
  // The operator's finalized SRP and per-pair GCC windows: lane block
  // spectra, PHAT cross spectra, pruned inverse transforms and the SRP sum
  // all run through the dispatched kernels.
  const auto capture = delayed_capture(4, 2048, 15);
  core::IncrementalExtractorConfig config;
  config.orientation.max_lag = 13;
  config.enable_liveness = false;
  struct Result {
    std::vector<double> srp;
    std::vector<std::vector<double>> pairs;
  };
  auto run = [&] {
    core::IncrementalExtractor op;
    op.begin(config, capture.channel_count(), capture.sample_rate());
    op.push(capture);
    (void)op.finalize_orientation();
    Result r{{op.srp().begin(), op.srp().end()}, {}};
    for (std::size_t p = 0; p < op.pair_count(); ++p) {
      r.pairs.emplace_back(op.pair_gcc(p).begin(), op.pair_gcc(p).end());
    }
    return r;
  };
  ScopedLevel scalar(simd::Level::kScalar);
  const Result reference = run();
  ASSERT_EQ(reference.pairs.size(), 6u);
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    const std::string at = std::string(" at level ") + simd::level_name(level);
    const Result got = run();
    expect_bits_equal(got.srp, reference.srp, "srp" + at);
    ASSERT_EQ(got.pairs.size(), reference.pairs.size());
    for (std::size_t p = 0; p < got.pairs.size(); ++p) {
      expect_bits_equal(got.pairs[p], reference.pairs[p],
                        "pair " + std::to_string(p) + " gcc" + at);
    }
  }
}

TEST(SimdEquivalence, BiquadLanesMatchCascadeAcrossLevels) {
  // The band-pass kernel packs channels into vector lanes; every lane's
  // output and carried delay line must equal a per-channel
  // BiquadCascade::process bit for bit, at every level, for full and
  // ragged lane groups, with state carried across calls of any size.
  const BiquadCascade design = butterworth_bandpass(5, 100.0, 16000.0, 48000.0);
  std::vector<double> coeffs;
  for (const Biquad& s : design.sections()) {
    coeffs.insert(coeffs.end(), {s.b0, s.b1, s.b2, s.a1, s.a2});
  }
  const std::size_t sections = design.section_count();
  constexpr std::size_t kFrames = 2000;
  for (const std::size_t lanes : {1u, 2u, 3u, 4u, 5u, 8u}) {
    std::vector<std::vector<double>> in;
    std::vector<std::vector<double>> want;
    std::vector<double> want_state(2 * sections * lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      in.push_back(random_signal(kFrames, static_cast<unsigned>(100 + 10 * lanes + l)));
      BiquadCascade cascade = design;
      want.push_back(in.back());
      cascade.process(want.back());
      for (std::size_t s = 0; s < sections; ++s) {
        want_state[2 * s * lanes + l] = cascade.sections()[s].z1();
        want_state[(2 * s + 1) * lanes + l] = cascade.sections()[s].z2();
      }
    }
    for (const simd::Level level : supported_levels()) {
      ScopedLevel scoped(level);
      for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{960},
                                      kFrames}) {
        const std::string what = std::string(simd::level_name(level)) + " lanes " +
                                 std::to_string(lanes) + " chunk " +
                                 std::to_string(chunk);
        std::vector<std::vector<double>> out(lanes, std::vector<double>(kFrames));
        std::vector<double> state(2 * sections * lanes, 0.0);
        std::vector<const double*> in_ptrs(lanes);
        std::vector<double*> out_ptrs(lanes);
        for (std::size_t offset = 0; offset < kFrames; offset += chunk) {
          for (std::size_t l = 0; l < lanes; ++l) {
            in_ptrs[l] = in[l].data() + offset;
            out_ptrs[l] = out[l].data() + offset;
          }
          simd::kernels().biquad_cascade(coeffs.data(), sections, state.data(), lanes,
                                         in_ptrs.data(), out_ptrs.data(),
                                         std::min(chunk, kFrames - offset));
        }
        for (std::size_t l = 0; l < lanes; ++l) {
          expect_bits_equal(out[l], want[l],
                            what + " output of lane " + std::to_string(l));
        }
        expect_bits_equal(state, want_state, what + " state");
      }
    }
  }
}

}  // namespace
}  // namespace headtalk::dsp
