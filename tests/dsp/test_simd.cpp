// Scalar-vs-SIMD equivalence suite (ctest label `simd-equivalence`).
//
// Every kernel-backed DSP entry point is swept across all dispatch levels
// the host supports and compared against the scalar reference: transforms
// and reductions must agree to <= 1e-9 relative (AVX2's FMA contraction
// reorders roundings), and discrete results — GCC/SRP peak lags — must be
// identical. The suite is run twice by ctest: once under HEADTALK_SIMD=off
// (scalar startup resolution) and once at the native best level.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "core/incremental_extractor.h"
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

void expect_close(const std::vector<double>& got, const std::vector<double>& want,
                  const char* what, simd::Level level) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    const double tol = 1e-9 * std::max(1.0, std::abs(want[k]));
    EXPECT_NEAR(got[k], want[k], tol)
        << what << " bin " << k << " at level " << simd::level_name(level);
  }
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
    const HalfSpectrum spectrum = rfft_half(x, 2048);
    ASSERT_EQ(spectrum.bins.size(), reference.bins.size());
    for (std::size_t k = 0; k < spectrum.bins.size(); ++k) {
      const double tol = 1e-9 * std::max(1.0, std::abs(reference.bins[k]));
      EXPECT_NEAR(spectrum.bins[k].real(), reference.bins[k].real(), tol)
          << "bin " << k << " at level " << simd::level_name(level);
      EXPECT_NEAR(spectrum.bins[k].imag(), reference.bins[k].imag(), tol)
          << "bin " << k << " at level " << simd::level_name(level);
    }
    const auto inverse = irfft_half(spectrum, x.size());
    expect_close(inverse, reference_inverse, "irfft_half", level);
  }
}

TEST(SimdEquivalence, MagnitudeSpectrumAcrossLevels) {
  const auto x = random_signal(700, 12);
  ScopedLevel scalar(simd::Level::kScalar);
  const auto reference = magnitude_spectrum(x, 1024);
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    expect_close(magnitude_spectrum(x, 1024), reference, "magnitude_spectrum", level);
  }
}

TEST(SimdEquivalence, PrunedInverseWindowMatchesFullSlice) {
  // The lag-windowed inverse must agree with slicing the full inverse —
  // for every level and for windows from tiny to nearly the whole
  // transform (the pruning degenerates to a full inverse at the top end).
  // Scalar and SSE2 are bit-identical; at AVX2 the compiler may or may not
  // FMA-contract the scalar tail of each path depending on optimization
  // flags (e.g. sanitizer builds), so that level is held to the 1e-9
  // contract instead of exact equality.
  const auto x = random_signal(900, 13);
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    const bool exact = level != simd::Level::kAvx2;
    const HalfSpectrum spectrum = rfft_half(x, 1024);
    const auto full = irfft_half(spectrum, 0);
    FftScratch scratch;
    std::vector<double> window;
    for (const int max_lag : {1, 5, 13, 100, 511}) {
      irfft_half_window_into(spectrum, max_lag, window, scratch);
      ASSERT_EQ(window.size(), static_cast<std::size_t>(2 * max_lag + 1));
      for (int lag = -max_lag; lag <= max_lag; ++lag) {
        const std::size_t wrapped =
            lag >= 0 ? static_cast<std::size_t>(lag)
                     : full.size() - static_cast<std::size_t>(-lag);
        const double got = window[static_cast<std::size_t>(lag + max_lag)];
        const double want = full[wrapped];
        if (exact) {
          EXPECT_DOUBLE_EQ(got, want)
              << "lag " << lag << " max_lag " << max_lag << " at level "
              << simd::level_name(level);
        } else {
          EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want)))
              << "lag " << lag << " max_lag " << max_lag << " at level "
              << simd::level_name(level);
        }
      }
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
    expect_close(gcc.values, reference.values, "gcc_phat", level);
  }
}

TEST(SimdEquivalence, DenseSrpAcrossLevels) {
  // The operator's finalized SRP and per-pair GCC windows: block spectra,
  // PHAT cross spectra, pruned inverse transforms and the SRP sum all run
  // through the dispatched kernels.
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
  auto peak = [](const std::vector<double>& v) {
    return std::distance(v.begin(), std::max_element(v.begin(), v.end()));
  };
  ScopedLevel scalar(simd::Level::kScalar);
  const Result reference = run();
  ASSERT_EQ(reference.pairs.size(), 6u);
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    const Result got = run();
    EXPECT_EQ(peak(got.srp), peak(reference.srp)) << "at level " << simd::level_name(level);
    expect_close(got.srp, reference.srp, "srp", level);
    ASSERT_EQ(got.pairs.size(), reference.pairs.size());
    for (std::size_t p = 0; p < got.pairs.size(); ++p) {
      expect_close(got.pairs[p], reference.pairs[p], "pair gcc", level);
    }
  }
}

}  // namespace
}  // namespace headtalk::dsp
