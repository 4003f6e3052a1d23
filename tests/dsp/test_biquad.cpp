#include "dsp/biquad.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

namespace headtalk::dsp {
namespace {

constexpr double kFs = 48000.0;

double response_at(const BiquadCascade& cascade, double freq_hz) {
  return cascade.magnitude_response(2.0 * std::numbers::pi * freq_hz / kFs);
}

TEST(Biquad, IdentitySectionPassesThrough) {
  Biquad identity;  // b0 = 1, everything else 0
  EXPECT_DOUBLE_EQ(identity.process(0.7), 0.7);
  EXPECT_DOUBLE_EQ(identity.process(-0.3), -0.3);
}

TEST(Butterworth, RejectsBadArguments) {
  EXPECT_THROW((void)butterworth_lowpass(0, 1000.0, kFs), std::invalid_argument);
  EXPECT_THROW((void)butterworth_lowpass(2, 0.0, kFs), std::invalid_argument);
  EXPECT_THROW((void)butterworth_lowpass(2, 24000.0, kFs), std::invalid_argument);
  EXPECT_THROW((void)butterworth_bandpass(2, 2000.0, 1000.0, kFs), std::invalid_argument);
}

class ButterworthOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(ButterworthOrderTest, LowpassMinus3DbAtCutoff) {
  const auto lp = butterworth_lowpass(GetParam(), 2000.0, kFs);
  EXPECT_NEAR(response_at(lp, 2000.0), 1.0 / std::sqrt(2.0), 0.02);
  EXPECT_NEAR(response_at(lp, 50.0), 1.0, 0.01);
}

TEST_P(ButterworthOrderTest, HighpassMinus3DbAtCutoff) {
  const auto hp = butterworth_highpass(GetParam(), 2000.0, kFs);
  EXPECT_NEAR(response_at(hp, 2000.0), 1.0 / std::sqrt(2.0), 0.02);
  EXPECT_NEAR(response_at(hp, 20000.0), 1.0, 0.05);
}

TEST_P(ButterworthOrderTest, LowpassRolloffMatchesOrder) {
  const int order = GetParam();
  const auto lp = butterworth_lowpass(order, 1000.0, kFs);
  // One octave above cutoff the attenuation should approach 6*order dB.
  const double att_db = -20.0 * std::log10(response_at(lp, 2000.0));
  EXPECT_NEAR(att_db, 6.02 * order, 0.35 * order + 1.0);
  // And keep steepening with frequency.
  const double att2_db = -20.0 * std::log10(response_at(lp, 4000.0));
  EXPECT_GT(att2_db, att_db + 4.0 * order);
}

INSTANTIATE_TEST_SUITE_P(Orders, ButterworthOrderTest, ::testing::Values(1, 2, 3, 5, 7));

TEST(Butterworth, BandpassPassesMidBandRejectsEdges) {
  // The HeadTalk preprocessing filter: 5th order, 100 Hz - 16 kHz.
  const auto bp = butterworth_bandpass(5, 100.0, 16000.0, kFs);
  EXPECT_NEAR(response_at(bp, 1000.0), 1.0, 0.02);
  EXPECT_NEAR(response_at(bp, 4000.0), 1.0, 0.02);
  EXPECT_LT(response_at(bp, 20.0), 0.05);
  EXPECT_LT(response_at(bp, 23000.0), 0.15);
  EXPECT_EQ(bp.section_count(), 6u);  // 3 HP sections + 3 LP sections
}

TEST(Butterworth, FilteredBufferRemovesOutOfBandTone) {
  const auto bp = butterworth_bandpass(5, 100.0, 16000.0, kFs);
  audio::Buffer lowtone(4800, kFs);
  for (std::size_t i = 0; i < lowtone.size(); ++i) {
    lowtone[i] = std::sin(2.0 * std::numbers::pi * 30.0 * static_cast<double>(i) / kFs);
  }
  auto cascade = bp;
  const auto filtered = cascade.filtered(lowtone);
  double energy_in = 0.0, energy_out = 0.0;
  for (std::size_t i = 2400; i < 4800; ++i) {  // skip transient
    energy_in += lowtone[i] * lowtone[i];
    energy_out += filtered[i] * filtered[i];
  }
  EXPECT_LT(energy_out, 0.02 * energy_in);
}

TEST(Biquad, CascadeResetClearsState) {
  auto lp = butterworth_lowpass(4, 1000.0, kFs);
  (void)lp.process(1.0);
  (void)lp.process(1.0);
  lp.reset();
  // After reset, the first output must equal a fresh filter's first output.
  auto fresh = butterworth_lowpass(4, 1000.0, kFs);
  EXPECT_DOUBLE_EQ(lp.process(0.5), fresh.process(0.5));
}

TEST(Biquad, StableUnderLongWhiteNoise) {
  auto bp = butterworth_bandpass(5, 100.0, 16000.0, kFs);
  std::uint32_t state = 123;
  double peak = 0.0;
  for (int i = 0; i < 48000; ++i) {
    state = state * 1664525u + 1013904223u;
    const double x = static_cast<double>(state) / 4294967295.0 - 0.5;
    peak = std::max(peak, std::abs(bp.process(x)));
  }
  EXPECT_LT(peak, 10.0);  // bounded output == stable poles
}

TEST(MultichannelBiquadCascade, MatchesPerChannelCascadeAcrossCalls) {
  // The wrapper's coefficient table and per-channel delay lines: two
  // ranges of one chunk filter like one continuous per-channel cascade.
  const BiquadCascade design = butterworth_bandpass(5, 100.0, 16000.0, kFs);
  constexpr std::size_t kFrames = 500;
  constexpr std::size_t kSplit = 123;
  audio::MultiBuffer chunk(3, kFrames, kFs);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t f = 0; f < kFrames; ++f) {
      chunk.channel(c)[f] = std::sin(0.01 * static_cast<double>((c + 1) * f));
    }
  }
  MultichannelBiquadCascade lanes;
  lanes.reset(design, 3);
  std::vector<audio::Sample> head, tail;
  lanes.process(chunk, 0, kSplit, head);
  lanes.process(chunk, kSplit, kFrames - kSplit, tail);
  ASSERT_EQ(head.size(), 3 * kSplit);
  ASSERT_EQ(tail.size(), 3 * (kFrames - kSplit));
  for (std::size_t c = 0; c < 3; ++c) {
    BiquadCascade cascade = design;
    for (std::size_t f = 0; f < kFrames; ++f) {
      const double want = cascade.process(chunk.channel(c)[f]);
      const double got = f < kSplit ? head[c * kSplit + f]
                                    : tail[c * (kFrames - kSplit) + f - kSplit];
      EXPECT_EQ(got, want) << "channel " << c << " frame " << f;
    }
  }
  EXPECT_THROW(lanes.process(chunk, 400, 101, tail), std::invalid_argument);
  lanes.reset(design, 2);
  EXPECT_THROW(lanes.process(chunk, 0, 1, tail), std::invalid_argument);

  // One channel (the liveness anti-alias) runs its sections across vector
  // lanes: calls shorter than the 5-section diagonal, and a call that
  // starts on another call's carried state, filter like one cascade.
  const BiquadCascade lowpass = butterworth_lowpass(10, 7200.0, kFs);
  audio::MultiBuffer mono(1, kFrames, kFs);
  for (std::size_t f = 0; f < kFrames; ++f) {
    mono.channel(0)[f] = chunk.channel(0)[f] + 0.5 * chunk.channel(2)[f];
  }
  MultichannelBiquadCascade one;
  one.reset(lowpass, 1);
  std::vector<audio::Sample> got;
  for (const auto& [first, frames] : {std::pair<std::size_t, std::size_t>{0, 3},
                                     {3, 4},
                                     {7, kSplit},
                                     {7 + kSplit, kFrames - 7 - kSplit}}) {
    std::vector<audio::Sample> part;
    one.process(mono, first, frames, part);
    got.insert(got.end(), part.begin(), part.end());
  }
  ASSERT_EQ(got.size(), kFrames);
  BiquadCascade cascade = lowpass;
  for (std::size_t f = 0; f < kFrames; ++f) {
    EXPECT_EQ(got[f], cascade.process(mono.channel(0)[f])) << "mono frame " << f;
  }
}

}  // namespace
}  // namespace headtalk::dsp
