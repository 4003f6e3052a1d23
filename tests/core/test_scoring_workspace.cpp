// ScoringWorkspace determinism: extraction with reused scratch must be
// bit-identical to the workspace-free path, across repeated calls and
// across capture sizes, and scoring a run of captures through one shared
// workspace must equal scoring each one without.
#include "core/scoring_workspace.h"

#include <gtest/gtest.h>

#include <random>

#include "core/liveness_features.h"
#include "core/orientation_features.h"
#include "core/pipeline.h"

namespace headtalk::core {
namespace {

// Band-limited noise at speech-ish level: cheap to synthesize, busy enough
// that preprocessing keeps it and every feature stage has real work.
audio::MultiBuffer make_capture(std::size_t frames, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-0.1, 0.1);
  audio::MultiBuffer capture(4, frames, audio::kDefaultSampleRate);
  for (std::size_t c = 0; c < capture.channel_count(); ++c) {
    double smoothed = 0.0;
    for (std::size_t i = 0; i < frames; ++i) {
      smoothed = 0.7 * smoothed + 0.3 * u(rng);
      capture.channel(c)[i] = smoothed;
    }
  }
  return capture;
}

TEST(ScoringWorkspace, OrientationExtractionIsBitIdentical) {
  const OrientationFeatureExtractor extractor;
  const auto capture = make_capture(12000, 1);
  const auto without = extractor.extract(capture);
  ScoringWorkspace workspace;
  const auto with = extractor.extract(capture, &workspace);
  ASSERT_EQ(without.size(), with.size());
  for (std::size_t i = 0; i < without.size(); ++i) {
    EXPECT_EQ(without[i], with[i]) << "feature " << i;
  }
}

TEST(ScoringWorkspace, LivenessExtractionIsBitIdentical) {
  const LivenessFeatureExtractor extractor;
  const auto capture = make_capture(12000, 2);
  const auto without = extractor.extract(capture);
  ScoringWorkspace workspace;
  const auto with = extractor.extract(capture, &workspace);
  ASSERT_EQ(without.size(), with.size());
  for (std::size_t i = 0; i < without.size(); ++i) {
    EXPECT_EQ(without[i], with[i]) << "feature " << i;
  }
}

TEST(ScoringWorkspace, ReuseAcrossSizesStaysBitIdentical) {
  // Growing and shrinking captures through one workspace: stale buffer
  // contents or stale sizes from the previous call must never leak into
  // the next result.
  const OrientationFeatureExtractor extractor;
  ScoringWorkspace workspace;
  for (std::size_t frames : {12000u, 5000u, 16000u, 5000u}) {
    const auto capture = make_capture(frames, static_cast<unsigned>(frames));
    const auto fresh = extractor.extract(capture);
    const auto reused = extractor.extract(capture, &workspace);
    ASSERT_EQ(fresh.size(), reused.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(fresh[i], reused[i]) << frames << " frames, feature " << i;
    }
  }
}

TEST(ScoringWorkspace, CountsUses) {
  const OrientationFeatureExtractor orientation;
  const LivenessFeatureExtractor liveness;
  const auto capture = make_capture(6000, 3);
  ScoringWorkspace workspace;
  EXPECT_EQ(workspace.uses(), 0u);
  (void)orientation.extract(capture, &workspace);
  EXPECT_EQ(workspace.uses(), 1u);
  (void)liveness.extract(capture, &workspace);
  EXPECT_EQ(workspace.uses(), 2u);
}

TEST(ScoringWorkspace, SharedWorkspaceMatchesIsolatedScoring) {
  // Synthetic-trained detectors (scoring math only cares about dimension),
  // then a run of captures through one shared workspace (what a serve
  // worker does) versus one-by-one scoring without: every result field
  // must agree exactly.
  const OrientationFeatureExtractor orientation_extractor;
  const LivenessFeatureExtractor liveness_extractor;
  std::mt19937 rng(4);
  std::normal_distribution<double> g(0.0, 1.0);
  ml::Dataset orientation_data, liveness_data;
  for (int i = 0; i < 40; ++i) {
    ml::FeatureVector a(orientation_extractor.dimension(4)), b(a.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      a[j] = g(rng) + 1.0;
      b[j] = g(rng) - 1.0;
    }
    orientation_data.add(std::move(a), kLabelFacing);
    orientation_data.add(std::move(b), kLabelNonFacing);
    ml::FeatureVector c(liveness_extractor.dimension()), d(c.size());
    for (std::size_t j = 0; j < c.size(); ++j) {
      c[j] = g(rng) + 1.0;
      d[j] = g(rng) - 1.0;
    }
    liveness_data.add(std::move(c), kLabelLive);
    liveness_data.add(std::move(d), kLabelReplay);
  }
  OrientationClassifier orientation;
  orientation.train(orientation_data);
  LivenessDetector liveness;
  liveness.train(liveness_data);
  const HeadTalkPipeline pipeline(std::move(orientation), std::move(liveness));

  std::vector<audio::MultiBuffer> captures;
  for (unsigned seed = 10; seed < 13; ++seed) captures.push_back(make_capture(9000, seed));

  ScoringWorkspace workspace;
  std::vector<PipelineResult> shared;
  for (const auto& capture : captures) {
    shared.push_back(pipeline.score_capture(capture, VaMode::kHeadTalk,
                                            /*followup=*/false,
                                            /*session_active=*/false, &workspace));
  }
  // Liveness always runs; orientation only when the liveness gate passes.
  EXPECT_GE(workspace.uses(), captures.size());
  EXPECT_LE(workspace.uses(), 2 * captures.size());

  for (std::size_t i = 0; i < captures.size(); ++i) {
    const auto single = pipeline.score_capture(captures[i], VaMode::kHeadTalk,
                                               /*followup=*/false,
                                               /*session_active=*/false);
    EXPECT_EQ(shared[i].decision, single.decision) << "capture " << i;
    EXPECT_EQ(shared[i].liveness_checked, single.liveness_checked);
    EXPECT_EQ(shared[i].live, single.live);
    EXPECT_EQ(shared[i].liveness_score, single.liveness_score);
    EXPECT_EQ(shared[i].orientation_checked, single.orientation_checked);
    EXPECT_EQ(shared[i].facing, single.facing);
    EXPECT_EQ(shared[i].orientation_score, single.orientation_score);
    EXPECT_EQ(shared[i].via_open_session, single.via_open_session);
    EXPECT_EQ(shared[i].session_open_after, single.session_open_after);
  }
}

}  // namespace
}  // namespace headtalk::core
