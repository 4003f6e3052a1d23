// Integration: the tools' WAV round trip, in process — render a capture,
// write it to disk as float32 WAV, read it back, extract features, train,
// serialize the models, reload them, and check the decisions survive every
// hop. This is the exact data path of headtalk_simulate -> headtalk_train
// -> headtalk_infer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "audio/wav_io.h"
#include "core/liveness_detector.h"
#include "core/liveness_features.h"
#include "core/orientation_classifier.h"
#include "core/orientation_features.h"
#include "sim/collector.h"

namespace headtalk {
namespace {

class WavPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("headtalk_wavpipe_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(WavPipelineTest, FeaturesSurviveTheWavHop) {
  sim::CollectorConfig cfg;
  cfg.cache_enabled = false;
  sim::Collector collector(cfg);
  sim::SampleSpec spec;
  spec.angle_deg = 0.0;

  const auto capture = collector.capture(spec);
  const auto path = dir_ / "capture.wav";
  audio::write_wav(path, capture, audio::WavEncoding::kFloat32);
  const auto loaded = audio::read_wav(path);

  const auto direct = collector.orientation_extractor(spec).extract(capture);
  const auto via_wav = collector.orientation_extractor(spec).extract(loaded);
  ASSERT_EQ(direct.size(), via_wav.size());
  // float32 quantization perturbs features only marginally.
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const double scale = std::max(1.0, std::abs(direct[i]));
    ASSERT_NEAR(direct[i], via_wav[i], 1e-3 * scale) << "feature " << i;
  }
}

TEST_F(WavPipelineTest, TrainSaveLoadInferRoundTrip) {
  sim::CollectorConfig cfg;
  cfg.cache_enabled = false;
  sim::Collector collector(cfg);

  // Miniature corpus through the WAV hop: four repetitions, as the pipeline
  // fixture uses. Two (12 orientation captures) leave the unseen-session
  // 0° probe on the wrong side of the SVM margin on raw captures.
  core::LivenessFeatureExtractor liveness_features;
  ml::Dataset orientation_data, liveness_data;
  auto add_capture = [&](double angle, sim::ReplaySource replay, unsigned rep) {
    sim::SampleSpec spec;
    spec.angle_deg = angle;
    spec.replay = replay;
    spec.repetition = rep;
    const auto path = dir_ / ("c" + std::to_string(orientation_data.size() + liveness_data.size()) + ".wav");
    audio::write_wav(path, collector.capture(spec), audio::WavEncoding::kFloat32);
    const auto raw = audio::read_wav(path);
    liveness_data.add(liveness_features.extract(raw),
                      replay == sim::ReplaySource::kNone ? core::kLabelLive
                                                         : core::kLabelReplay);
    if (replay == sim::ReplaySource::kNone) {
      const auto arc = core::training_arc(core::FacingDefinition::kDefinition4, angle);
      if (arc != core::TrainingArc::kExcluded) {
        orientation_data.add(collector.orientation_extractor(spec).extract(raw),
                             arc == core::TrainingArc::kFacing ? core::kLabelFacing
                                                               : core::kLabelNonFacing);
      }
    }
  };
  for (unsigned rep = 0; rep < 4; ++rep) {
    for (double angle : {0.0, 15.0, -15.0}) add_capture(angle, sim::ReplaySource::kNone, rep);
    for (double angle : {90.0, -90.0, 180.0}) add_capture(angle, sim::ReplaySource::kNone, rep);
    add_capture(0.0, sim::ReplaySource::kSmartphone, rep);
    add_capture(90.0, sim::ReplaySource::kSmartphone, rep);
  }

  core::OrientationClassifier orientation;
  orientation.train(orientation_data);
  core::LivenessDetector liveness;
  liveness.train(liveness_data);

  // Serialize to disk and reload (the headtalk_train / headtalk_infer hop).
  {
    std::ofstream out(dir_ / "orientation.htm", std::ios::binary);
    orientation.save(out);
    std::ofstream out2(dir_ / "liveness.htm", std::ios::binary);
    liveness.save(out2);
  }
  std::ifstream in(dir_ / "orientation.htm", std::ios::binary);
  const auto orientation2 = core::OrientationClassifier::load(in);
  std::ifstream in2(dir_ / "liveness.htm", std::ios::binary);
  const auto liveness2 = core::LivenessDetector::load(in2);

  // Fresh unseen captures, via WAV, classified by the reloaded models.
  auto classify = [&](double angle, sim::ReplaySource replay) {
    sim::SampleSpec spec;
    spec.angle_deg = angle;
    spec.replay = replay;
    spec.session = 1;
    const auto path = dir_ / "probe.wav";
    audio::write_wav(path, collector.capture(spec), audio::WavEncoding::kFloat32);
    const auto raw = audio::read_wav(path);
    const bool live = liveness2.is_live(liveness_features.extract(raw));
    const bool facing =
        orientation2.is_facing(collector.orientation_extractor(spec).extract(raw));
    return std::pair{live, facing};
  };

  const auto facing_human = classify(0.0, sim::ReplaySource::kNone);
  EXPECT_TRUE(facing_human.first);
  EXPECT_TRUE(facing_human.second);

  const auto backward_human = classify(180.0, sim::ReplaySource::kNone);
  EXPECT_TRUE(backward_human.first);
  EXPECT_FALSE(backward_human.second);

  const auto replay_attack = classify(0.0, sim::ReplaySource::kSmartphone);
  EXPECT_FALSE(replay_attack.first);
}

}  // namespace
}  // namespace headtalk
