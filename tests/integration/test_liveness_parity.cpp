// Training extracts what serving scores. The liveness model is trained on
// Collector::liveness_features (and tenants enroll through enroll_profile),
// and it is served score_capture's liveness vector. Both must be the same
// computation: the silence trim is decided on the envelope of every
// channel, and the features come from band-passed channel 0. The fixture
// capture is one whose channel-0-only trim differs from the all-channel
// trim, so extracting from channel 0 alone cannot pass.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/incremental_extractor.h"
#include "core/pipeline.h"
#include "serve_test_util.h"
#include "sim/collector.h"
#include "tenant/enrollment.h"

using namespace headtalk;

namespace {

sim::Collector uncached_collector() {
  sim::CollectorConfig config;
  config.cache_enabled = false;
  return sim::Collector(config);
}

/// Lab, placement A, D2, 1 m in front of the array, facing, live.
sim::SampleSpec near_facing_live(double angle_deg = 0.0) {
  sim::SampleSpec spec;
  spec.location = {sim::GridRadial::kMiddle, 1.0};
  spec.angle_deg = angle_deg;
  return spec;
}

/// The liveness trim of `capture` when only its first `channels` channels
/// feed the operator.
std::pair<std::size_t, std::size_t> liveness_trim(const audio::MultiBuffer& capture,
                                                  std::size_t channels) {
  std::vector<audio::Buffer> kept;
  for (std::size_t c = 0; c < channels; ++c) kept.push_back(capture.channel(c));
  core::IncrementalExtractorConfig config;
  config.enable_orientation = false;
  core::IncrementalExtractor op;
  op.begin(config, channels, capture.sample_rate());
  op.push(audio::MultiBuffer(std::move(kept)));
  (void)op.finalize_liveness();
  return op.active_blocks();
}

core::FeatureCapture served_features(const core::HeadTalkPipeline& pipeline,
                                     const audio::MultiBuffer& capture) {
  core::FeatureCapture features;
  (void)pipeline.score_capture(capture, core::VaMode::kHeadTalk, /*followup=*/false,
                               /*session_active=*/false, nullptr, &features);
  return features;
}

void expect_same_bits(const std::vector<double>& actual,
                      const std::vector<double>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "feature " << i << ": " << actual[i] << " vs " << expected[i];
  }
}

}  // namespace

TEST(TrainingServingParity, CollectorLivenessIsTheServedVector) {
  const auto collector = uncached_collector();
  const auto spec = near_facing_live();
  const auto capture = collector.capture(spec);
  ASSERT_GT(capture.channel_count(), 1u);
  ASSERT_NE(liveness_trim(capture, 1), liveness_trim(capture, capture.channel_count()))
      << "the fixture must trim differently on channel 0 alone";

  const core::HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  const auto served = served_features(pipeline, capture);
  ASSERT_FALSE(served.liveness.empty());
  expect_same_bits(collector.liveness_features(spec), served.liveness);
}

TEST(TrainingServingParity, EnrolledLivenessIsTheServedMean) {
  const auto collector = uncached_collector();
  std::vector<audio::MultiBuffer> captures;
  for (const double angle : {0.0, 15.0, -15.0}) {
    captures.push_back(collector.capture(near_facing_live(angle)));
  }
  ASSERT_NE(liveness_trim(captures[0], 1),
            liveness_trim(captures[0], captures[0].channel_count()));

  // The profile enroll_profile builds equals the one built from the
  // features serving computes for the same captures.
  const core::HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  const core::OrientationFeatureExtractor orientation(
      pipeline.config().orientation_features);
  std::vector<core::FeatureCapture> served;
  for (const auto& capture : captures) {
    core::FeatureCapture features;
    features.liveness = served_features(pipeline, capture).liveness;
    features.orientation = orientation.extract(capture);
    served.push_back(std::move(features));
  }
  const auto enrolled = tenant::enroll_profile(pipeline.config(), captures, "alice");
  const auto expected = tenant::enroll_from_features(served, "alice");
  expect_same_bits(enrolled.liveness.centroid, expected.liveness.centroid);
  expect_same_bits(enrolled.liveness.spread, expected.liveness.spread);
  EXPECT_EQ(enrolled.threshold, expected.threshold);
}
