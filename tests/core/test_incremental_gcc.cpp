// The operator's correlation results: per-pair GCC-PHAT windows, their
// coherence pruning, and the weighted SRP (Eq. 6) summed from them — the
// views finalize_orientation() exposes and builds its feature vector from.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/incremental_extractor.h"
#include "dsp/fractional_delay.h"

namespace headtalk::core {
namespace {

constexpr double kFs = 48000.0;

audio::Buffer random_buffer(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  audio::Buffer b(n, kFs);
  for (auto& v : b.data()) v = u(rng);
  return b;
}

audio::Buffer delayed(const audio::Buffer& x, double samples) {
  return audio::Buffer(dsp::fractional_delay(x.samples(), samples), kFs);
}

IncrementalExtractorConfig gcc_config(int max_lag, double coherence_floor) {
  IncrementalExtractorConfig config;
  config.orientation.max_lag = max_lag;
  config.orientation.coherence_floor = coherence_floor;
  config.enable_liveness = false;
  return config;
}

/// Runs the whole capture through `op` and returns the feature vector.
ml::FeatureVector finalize(IncrementalExtractor& op, const audio::MultiBuffer& capture,
                           const IncrementalExtractorConfig& config) {
  op.begin(config, capture.channel_count(), capture.sample_rate());
  op.push(capture);
  return op.finalize_orientation();
}

int srp_peak_lag(const IncrementalExtractor& op) {
  const auto srp = op.srp();
  return static_cast<int>(std::distance(srp.begin(), std::max_element(srp.begin(), srp.end()))) -
         op.max_lag();
}

TEST(PairGcc, EnumeratesAllPairs) {
  // Channel k delayed by k samples: pair (i, j) peaks at i - j, so the TDoA
  // sequence pins the pair order (0,1), (0,2), (0,3), (1,2), (1,3), (2,3).
  const auto base = random_buffer(4800, 1);
  std::vector<audio::Buffer> channels;
  for (int k = 0; k < 4; ++k) channels.push_back(delayed(base, k));
  IncrementalExtractor op;
  (void)finalize(op, audio::MultiBuffer(std::move(channels)), gcc_config(10, 0.05));
  ASSERT_EQ(op.pair_count(), 6u);
  const int expected[] = {-1, -2, -3, -1, -2, -1};
  for (std::size_t p = 0; p < 6; ++p) {
    EXPECT_EQ(op.pair_gcc(p).size(), 21u);
    EXPECT_FALSE(op.pair_pruned(p)) << "pair " << p;
    EXPECT_EQ(op.pair_tdoa(p), expected[p]) << "pair " << p;
  }
  EXPECT_EQ(op.srp().size(), 21u);
  EXPECT_THROW((void)op.pair_gcc(6), std::out_of_range);
}

TEST(PairGcc, ViewsAreClearedByBegin) {
  IncrementalExtractor op;
  const audio::MultiBuffer capture(
      std::vector<audio::Buffer>{random_buffer(2048, 2), random_buffer(2048, 3)});
  (void)finalize(op, capture, gcc_config(6, 0.0));
  op.begin(gcc_config(6, 0.0), 2, kFs);
  EXPECT_TRUE(op.srp().empty());
  EXPECT_THROW((void)op.pair_gcc(0), std::out_of_range);
}

TEST(SrpPhat, SumsPairGccs) {
  // Three identical channels: every pair window peaks at lag 0, and the SRP
  // is the element-wise sum of the three windows.
  const auto base = random_buffer(2048, 1);
  IncrementalExtractor op;
  (void)finalize(op, audio::MultiBuffer(std::vector<audio::Buffer>{base, base, base}),
                 gcc_config(6, 0.05));
  ASSERT_EQ(op.pair_count(), 3u);
  EXPECT_EQ(srp_peak_lag(op), 0);
  for (std::size_t k = 0; k < op.srp().size(); ++k) {
    EXPECT_NEAR(op.srp()[k], op.pair_gcc(0)[k] + op.pair_gcc(1)[k] + op.pair_gcc(2)[k],
                1e-9);
  }
}

TEST(SrpPhat, PeakAtCommonDelayStructure) {
  // Channel k delayed by k samples: pairwise TDoAs are -1 (x2) and -2 (x1),
  // so the SRP mass concentrates at small negative lags rather than lag 0.
  const auto base = random_buffer(2048, 2);
  std::vector<audio::Buffer> channels;
  for (int k = 0; k < 3; ++k) channels.push_back(delayed(base, k));
  IncrementalExtractor op;
  (void)finalize(op, audio::MultiBuffer(std::move(channels)), gcc_config(5, 0.05));
  EXPECT_LT(srp_peak_lag(op), 0);
  EXPECT_GE(srp_peak_lag(op), -2);
}

TEST(PairGcc, CoherenceFloorPrunesDecorrelatedPair) {
  // Two coupled channels (one a delayed copy of the other) plus one
  // independent noise channel: both pairs involving the noise channel
  // measure block coherence near 1/64 and are pruned; the coupled pair
  // stays.
  const auto base = random_buffer(4800, 3);
  const audio::MultiBuffer capture(
      std::vector<audio::Buffer>{base, delayed(base, 2.0), random_buffer(4800, 99)});
  const auto config = gcc_config(13, 0.2);
  IncrementalExtractor op;
  const auto features = finalize(op, capture, config);
  ASSERT_EQ(op.pair_count(), 3u);
  EXPECT_FALSE(op.pair_pruned(0));  // (0,1)
  EXPECT_EQ(op.pair_tdoa(0), -2);   // channel 1 lags channel 0

  const std::size_t window = 27;
  const std::size_t tdoa_at = config.orientation.srp_peaks + 5 + 3 * window;
  for (std::size_t p : {std::size_t{1}, std::size_t{2}}) {  // (0,2), (1,2)
    EXPECT_TRUE(op.pair_pruned(p)) << "pair " << p;
    for (double v : op.pair_gcc(p)) EXPECT_DOUBLE_EQ(v, 0.0);
    EXPECT_EQ(op.pair_tdoa(p), 0) << "pair " << p;
    EXPECT_DOUBLE_EQ(features[tdoa_at + p], 0.0) << "pair " << p;
  }
  EXPECT_DOUBLE_EQ(features[tdoa_at], -2.0);
  // Pruned pairs contribute nothing: SRP equals the surviving pair alone.
  ASSERT_EQ(op.srp().size(), window);
  for (std::size_t k = 0; k < window; ++k) {
    EXPECT_DOUBLE_EQ(op.srp()[k], op.pair_gcc(0)[k]);
  }
}

TEST(PairGcc, ZeroFloorDisablesCoherenceEstimate) {
  const audio::MultiBuffer capture(
      std::vector<audio::Buffer>{random_buffer(2048, 4), random_buffer(2048, 98)});
  IncrementalExtractor op;
  (void)finalize(op, capture, gcc_config(13, 0.0));
  ASSERT_EQ(op.pair_count(), 1u);
  EXPECT_FALSE(op.pair_pruned(0));
  const auto window = op.pair_gcc(0);
  EXPECT_TRUE(std::any_of(window.begin(), window.end(), [](double v) { return v != 0.0; }));
}

}  // namespace
}  // namespace headtalk::core
