#include "dsp/srp.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace headtalk::dsp {
namespace {

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
