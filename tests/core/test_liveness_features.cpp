#include "core/liveness_features.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "speech/loudspeaker.h"
#include "speech/synthesizer.h"

namespace headtalk::core {
namespace {

audio::Buffer live_utterance(unsigned seed) {
  std::mt19937 rng(42);
  const auto profile = speech::SpeakerProfile::random(rng);
  return speech::synthesize_wake_word(speech::WakeWord::kComputer, profile, seed);
}

/// A one-microphone capture of `x`.
audio::MultiBuffer mono(audio::Buffer x) {
  return audio::MultiBuffer(std::vector<audio::Buffer>{std::move(x)});
}

TEST(LivenessFeatures, DimensionMatchesExtraction) {
  LivenessFeatureExtractor e;
  const auto f = e.extract(mono(live_utterance(1)));
  EXPECT_EQ(f.size(), e.dimension());
}

TEST(LivenessFeatures, DeterministicForSameInput) {
  LivenessFeatureExtractor e;
  const auto x = mono(live_utterance(2));
  EXPECT_EQ(e.extract(x), e.extract(x));
}

TEST(LivenessFeatures, FiniteOnSilence) {
  LivenessFeatureExtractor e;
  const audio::MultiBuffer silent(1, 16000, 48000.0);
  for (double v : e.extract(silent)) EXPECT_TRUE(std::isfinite(v));
}

TEST(LivenessFeatures, SeparatesLiveFromReplay) {
  // The high-band log energies / slope must differ measurably between live
  // and replayed renditions of the same utterance (the Fig. 3 signature).
  LivenessFeatureExtractor e;
  const auto live = live_utterance(3);
  const auto replay =
      speech::replay_through(live, speech::LoudspeakerModel::smartphone(), 7);
  const auto fl = e.extract(mono(live));
  const auto fr = e.extract(mono(replay));
  ASSERT_EQ(fl.size(), fr.size());
  // Compare the top third of the log band energies (high bands).
  const std::size_t bands = e.config().log_bands;
  double live_high = 0.0, replay_high = 0.0;
  for (std::size_t b = 2 * bands / 3; b < bands; ++b) {
    live_high += fl[b];
    replay_high += fr[b];
  }
  EXPECT_GT(live_high, replay_high + 3.0);  // several dB higher per band sum
}

TEST(LivenessFeatures, AcceptsAnyInputRate) {
  LivenessFeatureExtractor e;
  audio::MultiBuffer at16k(1, 8000, 16000.0);
  for (std::size_t i = 0; i < at16k.frames(); ++i) {
    at16k.channel(0)[i] = std::sin(0.3 * static_cast<double>(i));
  }
  const auto f = e.extract(at16k);  // no resampling needed, still works
  EXPECT_EQ(f.size(), e.dimension());
}

TEST(LivenessFeatures, ConfigurableBandCount) {
  LivenessFeatureConfig cfg;
  cfg.log_bands = 16;
  LivenessFeatureExtractor e(cfg);
  EXPECT_EQ(e.dimension(), 16u + 6u);
  EXPECT_EQ(e.extract(mono(live_utterance(4))).size(), 22u);
}

}  // namespace
}  // namespace headtalk::core
