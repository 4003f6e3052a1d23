#include "dsp/srp.h"

#include <gtest/gtest.h>

#include <random>

#include "dsp/fractional_delay.h"

namespace headtalk::dsp {
namespace {

audio::Buffer random_buffer(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  audio::Buffer b(n, 48000.0);
  for (auto& v : b.data()) v = u(rng);
  return b;
}

TEST(PairwiseGcc, EnumeratesAllPairs) {
  audio::MultiBuffer capture(4, 512, 48000.0);
  const auto gcc = pairwise_gcc_phat(capture, 10);
  ASSERT_EQ(gcc.pairs.size(), 6u);  // C(4,2)
  EXPECT_EQ(gcc.pairs[0].i, 0u);
  EXPECT_EQ(gcc.pairs[0].j, 1u);
  EXPECT_EQ(gcc.pairs.back().i, 2u);
  EXPECT_EQ(gcc.pairs.back().j, 3u);
  for (const auto& p : gcc.pairs) EXPECT_EQ(p.gcc.size(), 21u);
}

TEST(SrpPhat, SumsPairGccs) {
  // Three identical channels: every pair GCC peaks at lag 0, so the SRP
  // peak at lag 0 is (number of pairs) x per-pair peak.
  const auto base = random_buffer(1024, 1);
  audio::MultiBuffer capture(std::vector<audio::Buffer>{base, base, base});
  const auto gcc = pairwise_gcc_phat(capture, 6);
  const auto srp = srp_phat(gcc);
  EXPECT_EQ(srp.peak_lag(), 0);
  EXPECT_NEAR(srp.at_lag(0),
              gcc.pairs[0].gcc.at_lag(0) + gcc.pairs[1].gcc.at_lag(0) +
                  gcc.pairs[2].gcc.at_lag(0),
              1e-9);
}

TEST(SrpPhat, PeakAtCommonDelayStructure) {
  // Channel k delayed by k samples: pairwise TDoAs are 1 or 2 samples, so
  // the SRP mass concentrates at small positive lags rather than lag 0.
  const auto base = random_buffer(2048, 2);
  std::vector<audio::Buffer> channels;
  for (int k = 0; k < 3; ++k) {
    channels.emplace_back(fractional_delay(base.samples(), static_cast<double>(k)),
                          48000.0);
  }
  const auto srp = srp_phat(audio::MultiBuffer(std::move(channels)), 5);
  // Pairs: (0,1) delay -1? pair (i,j) = gcc(ch_i, ch_j) peaks at d_i - d_j = i - j.
  // Expected peaks at -1 (x2) and -2 (x1).
  EXPECT_LT(srp.peak_lag(), 0);
  EXPECT_GE(srp.peak_lag(), -2);
}

TEST(PairwiseGcc, CoherenceFloorPrunesDecorrelatedPair) {
  // Two coupled channels (one a delayed copy of the other) plus one
  // independent noise channel: with a floor set, both pairs involving the
  // noise channel measure block coherence near 1/block (~0.016) and are
  // pruned; the coupled pair stays.
  const auto base = random_buffer(2048, 3);
  audio::MultiBuffer capture(std::vector<audio::Buffer>{
      base,
      audio::Buffer(fractional_delay(base.samples(), 2.0), 48000.0),
      random_buffer(2048, 99)});
  PairwiseGccOptions options;
  options.coherence_floor = 0.2;
  const auto gcc = pairwise_gcc_phat(capture, 13, options);
  ASSERT_EQ(gcc.pairs.size(), 3u);
  const auto& coupled = gcc.pairs[0];  // (0,1)
  EXPECT_FALSE(coupled.pruned);
  EXPECT_GT(coupled.coherence, 0.5);
  EXPECT_EQ(coupled.gcc.peak_lag(), -2);  // channel 1 lags channel 0
  for (std::size_t p : {std::size_t{1}, std::size_t{2}}) {  // (0,2), (1,2)
    EXPECT_TRUE(gcc.pairs[p].pruned) << "pair " << p;
    EXPECT_LT(gcc.pairs[p].coherence, 0.1) << "pair " << p;
    for (double v : gcc.pairs[p].gcc.values) EXPECT_DOUBLE_EQ(v, 0.0);
  }
  // Pruned pairs contribute nothing: SRP equals the surviving pair alone.
  const auto srp = srp_phat(gcc);
  for (int lag = -13; lag <= 13; ++lag) {
    EXPECT_DOUBLE_EQ(srp.at_lag(lag), coupled.gcc.at_lag(lag));
  }
}

TEST(PairwiseGcc, ZeroFloorDisablesCoherenceEstimate) {
  const auto base = random_buffer(2048, 4);
  audio::MultiBuffer capture(
      std::vector<audio::Buffer>{base, random_buffer(2048, 98)});
  const auto gcc = pairwise_gcc_phat(capture, 13);  // default floor 0
  ASSERT_EQ(gcc.pairs.size(), 1u);
  EXPECT_FALSE(gcc.pairs[0].pruned);
  EXPECT_DOUBLE_EQ(gcc.pairs[0].coherence, 1.0);  // never estimated
}

TEST(SrpMaxLag, MatchesPaperValues) {
  // §III-B3: D1 d=8.5 cm -> 12, D2 d=9 cm -> 13, D3 d=6.5 cm -> 10 at 48 kHz.
  EXPECT_EQ(srp_max_lag(0.085, 48000.0), 12);
  EXPECT_EQ(srp_max_lag(0.090, 48000.0), 13);
  EXPECT_EQ(srp_max_lag(0.065, 48000.0), 10);
}

TEST(SrpMaxLag, RejectsNonPositive) {
  EXPECT_THROW((void)srp_max_lag(0.0, 48000.0), std::invalid_argument);
  EXPECT_THROW((void)srp_max_lag(0.1, -1.0), std::invalid_argument);
}

TEST(TopPeaks, FindsDescendingLocalMaxima) {
  const std::vector<double> seq{0.0, 1.0, 0.2, 0.0, 3.0, 0.1, 0.0, 2.0, 0.0};
  const auto peaks = top_peaks(seq, 3);
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_DOUBLE_EQ(peaks[0], 3.0);
  EXPECT_DOUBLE_EQ(peaks[1], 2.0);
  EXPECT_DOUBLE_EQ(peaks[2], 1.0);
}

TEST(TopPeaks, RespectsMinSeparation) {
  // Two adjacent high values: with separation 3 only one may be kept.
  const std::vector<double> seq{0.0, 5.0, 4.9, 0.0, 0.0, 1.0, 0.0};
  const auto peaks = top_peaks(seq, 2, 3);
  EXPECT_DOUBLE_EQ(peaks[0], 5.0);
  EXPECT_DOUBLE_EQ(peaks[1], 1.0);
}

TEST(TopPeaks, PadsWithZerosWhenFewPeaks) {
  const std::vector<double> seq{0.0, 1.0, 0.0};
  const auto peaks = top_peaks(seq, 3);
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_DOUBLE_EQ(peaks[0], 1.0);
  EXPECT_DOUBLE_EQ(peaks[1], 0.0);
  EXPECT_DOUBLE_EQ(peaks[2], 0.0);
}

TEST(TopPeaks, EdgesAreNotPeaks) {
  // Large boundary values are window-edge artifacts, not local maxima: only
  // interior samples that dominate both neighbours qualify.
  const std::vector<double> seq{5.0, 1.0, 0.0, 2.0, 0.0, 0.0, 4.0};
  const auto peaks = top_peaks(seq, 2);
  EXPECT_DOUBLE_EQ(peaks[0], 2.0);
  EXPECT_DOUBLE_EQ(peaks[1], 0.0);  // no second interior peak -> zero pad
}

TEST(TopPeaks, MonotoneRampHasNoPeaks) {
  const std::vector<double> ascending{0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> descending{5.0, 4.0, 3.0, 2.0, 1.0, 0.0};
  for (const auto& seq : {ascending, descending}) {
    const auto peaks = top_peaks(seq, 3);
    ASSERT_EQ(peaks.size(), 3u);
    for (double p : peaks) EXPECT_DOUBLE_EQ(p, 0.0);
  }
}

TEST(TopPeaks, TinySequencesHaveNoPeaks) {
  EXPECT_DOUBLE_EQ(top_peaks({}, 1)[0], 0.0);
  EXPECT_DOUBLE_EQ(top_peaks({7.0}, 1)[0], 0.0);
  EXPECT_DOUBLE_EQ(top_peaks({7.0, 3.0}, 1)[0], 0.0);
}

}  // namespace
}  // namespace headtalk::dsp
