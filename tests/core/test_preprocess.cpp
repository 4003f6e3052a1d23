// The Fig. 2 preprocessing stage as the incremental operator runs it:
// band-pass per channel, then one block-granular silence trim shared by all
// channels, reported through active_blocks(). The filter itself is covered
// by the Butterworth tests (tests/dsp/test_biquad.cpp).
#include "core/incremental_extractor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "dsp/fractional_delay.h"

namespace headtalk::core {
namespace {

constexpr double kFs = 48000.0;

audio::Buffer tone(double freq, std::size_t frames) {
  audio::Buffer b(frames, kFs);
  for (std::size_t i = 0; i < frames; ++i) {
    b[i] = 0.5 * std::sin(2.0 * std::numbers::pi * freq * static_cast<double>(i) / kFs);
  }
  return b;
}

/// Runs `capture` through the operator (liveness stage only, so any channel
/// count works) and returns the kept sample span [begin, end), clamped to
/// the capture length.
std::pair<std::size_t, std::size_t> kept_span(const audio::MultiBuffer& capture) {
  IncrementalExtractorConfig config;
  config.enable_orientation = false;
  IncrementalExtractor op;
  op.begin(config, capture.channel_count(), capture.sample_rate());
  op.push(capture);
  (void)op.finalize_liveness();
  const auto [b0, b1] = op.active_blocks();
  const std::size_t block = op.block_length();
  return {b0 * block, std::min(capture.frames(), b1 * block)};
}

TEST(Preprocess, TrimsLeadingAndTrailingSilence) {
  // 100 ms silence + 100 ms tone + 200 ms silence.
  audio::MultiBuffer x(1, static_cast<std::size_t>(0.4 * kFs), kFs);
  const auto burst = tone(1000.0, static_cast<std::size_t>(0.1 * kFs));
  const auto burst_begin = static_cast<std::size_t>(0.1 * kFs);
  for (std::size_t i = 0; i < burst.size(); ++i) x.channel(0)[burst_begin + i] = burst[i];
  const auto [begin, end] = kept_span(x);
  // Kept span ~ utterance + 2x40 ms padding, and it covers the burst.
  EXPECT_LT(end - begin, static_cast<std::size_t>(0.25 * kFs));
  EXPECT_GT(end - begin, static_cast<std::size_t>(0.09 * kFs));
  EXPECT_LE(begin, burst_begin);
  EXPECT_GE(end, burst_begin + burst.size());
}

TEST(Preprocess, MultichannelTrimIsSynchronized) {
  // A noise burst on two channels with a 5-sample inter-channel delay,
  // silence around it: both channels are trimmed to one span, so the
  // trimmed pair still measures the 5-sample TDoA.
  const auto total = static_cast<std::size_t>(0.3 * kFs);
  const auto off = static_cast<std::size_t>(0.1 * kFs);
  const auto burst_len = static_cast<std::size_t>(0.08 * kFs);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(-0.5, 0.5);
  std::vector<double> burst(burst_len);
  for (auto& v : burst) v = u(rng);
  const auto late = dsp::fractional_delay(burst, 5.0);
  audio::MultiBuffer m(2, total, kFs);
  for (std::size_t i = 0; i < burst_len; ++i) {
    m.channel(0)[off + i] = burst[i];
    m.channel(1)[off + i] = late[i];
  }
  IncrementalExtractorConfig config;
  config.enable_liveness = false;
  IncrementalExtractor op;
  op.begin(config, 2, kFs);
  op.push(m);
  (void)op.finalize_orientation();
  const auto [b0, b1] = op.active_blocks();
  EXPECT_LT((b1 - b0) * op.block_length(), total);
  EXPECT_FALSE(op.pair_pruned(0));
  EXPECT_EQ(op.pair_tdoa(0), -5);
}

TEST(Preprocess, SilentInputSurvives) {
  const audio::MultiBuffer m(2, 4800, kFs);
  const auto [begin, end] = kept_span(m);
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, 4800u);  // nothing to trim against
}

TEST(Preprocess, QuietCaptureBelowSilenceFloorIsNotTrimmed) {
  // A capture whose loudest block sits under the absolute silence floor
  // must not be trimmed against its own noise wiggle (the threshold is
  // relative to the peak): every block is kept.
  const auto total = static_cast<std::size_t>(0.4 * kFs);
  audio::MultiBuffer m(2, total, kFs);
  const auto burst = tone(1000.0, static_cast<std::size_t>(0.1 * kFs));
  const auto off = static_cast<std::size_t>(0.15 * kFs);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    // ~-80 dBFS: shaped like an utterance but far below the floor.
    m.channel(0)[off + i] = 2e-4 * burst[i];
    m.channel(1)[off + i] = 2e-4 * burst[i];
  }
  const auto [begin, end] = kept_span(m);
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, total);

  // The same shape at speech level still trims.
  audio::MultiBuffer loud(2, total, kFs);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    loud.channel(0)[off + i] = burst[i];
    loud.channel(1)[off + i] = burst[i];
  }
  const auto [loud_begin, loud_end] = kept_span(loud);
  EXPECT_LT(loud_end - loud_begin, total);
}

TEST(Preprocess, BriefClickDoesNotTriggerTrimming) {
  // A loud blip shorter than min_active_ms is a glitch, not an utterance:
  // trimming to it would throw away the whole capture.
  const auto total = static_cast<std::size_t>(0.4 * kFs);
  audio::MultiBuffer m(1, total, kFs);
  const auto blip = tone(1000.0, static_cast<std::size_t>(0.03 * kFs));  // 30 ms
  const auto off = static_cast<std::size_t>(0.2 * kFs);
  for (std::size_t i = 0; i < blip.size(); ++i) m.channel(0)[off + i] = blip[i];
  const auto [begin, end] = kept_span(m);
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, total);
}

TEST(Preprocess, HighCutoffClampedBelowNyquist) {
  // The default 16 kHz upper edge with a 16 kHz-rate capture must not
  // throw: the edge clamps below Nyquist.
  audio::MultiBuffer x(1, 1600, 16000.0);
  x.channel(0)[800] = 0.5;
  EXPECT_NO_THROW((void)kept_span(x));
}

}  // namespace
}  // namespace headtalk::core
