// Shared fixtures for the serve tests: a cheaply-trained pipeline (scoring
// cost and interfaces match production; the fit itself is irrelevant here)
// and deterministic synthetic captures.
#pragma once

#include <random>

#include "audio/sample_buffer.h"
#include "core/liveness_features.h"
#include "core/orientation_features.h"
#include "core/pipeline.h"

namespace headtalk::serve_test {

/// Models for 4-channel captures at the default rate, or at any rate whose
/// lag window `config` fixes (orientation_features.max_lag).
inline core::HeadTalkPipeline make_test_pipeline(core::PipelineConfig config = {}) {
  core::OrientationFeatureExtractor orientation_extractor(config.orientation_features);
  core::LivenessFeatureExtractor liveness_extractor(config.liveness_features);
  std::mt19937 rng(7);
  std::normal_distribution<double> g(0.0, 1.0);

  ml::Dataset orientation_data;
  const auto orientation_dim = orientation_extractor.dimension(4);
  for (int i = 0; i < 40; ++i) {
    ml::FeatureVector a(orientation_dim), b(orientation_dim);
    for (std::size_t j = 0; j < orientation_dim; ++j) {
      a[j] = g(rng) + 1.0;
      b[j] = g(rng) - 1.0;
    }
    orientation_data.add(std::move(a), core::kLabelFacing);
    orientation_data.add(std::move(b), core::kLabelNonFacing);
  }
  core::OrientationClassifier orientation;
  orientation.train(orientation_data);

  ml::Dataset liveness_data;
  const auto liveness_dim = liveness_extractor.dimension();
  for (int i = 0; i < 40; ++i) {
    ml::FeatureVector a(liveness_dim), b(liveness_dim);
    for (std::size_t j = 0; j < liveness_dim; ++j) {
      a[j] = g(rng) + 1.0;
      b[j] = g(rng) - 1.0;
    }
    liveness_data.add(std::move(a), core::kLabelLive);
    liveness_data.add(std::move(b), core::kLabelReplay);
  }
  core::LivenessDetector liveness;
  liveness.train(liveness_data);

  return core::HeadTalkPipeline(std::move(orientation), std::move(liveness), config);
}

/// Deterministic noisy capture loud enough to survive preprocessing.
inline audio::MultiBuffer make_capture(std::size_t channels = 4,
                                       std::size_t frames = 48000,
                                       unsigned seed = 11) {
  audio::MultiBuffer capture(channels, frames, audio::kDefaultSampleRate);
  std::mt19937 rng(seed);
  std::normal_distribution<double> g(0.0, 0.1);
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t f = 0; f < frames; ++f) {
      capture.channel(c)[f] = g(rng);
    }
  }
  return capture;
}

}  // namespace headtalk::serve_test
