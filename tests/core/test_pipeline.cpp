// Pipeline mode state machine, exercised with real (small) renders so the
// feature extractors see realistic captures.
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "audio/gain.h"
#include "room/scene.h"
#include "speech/loudspeaker.h"
#include "speech/synthesizer.h"

namespace headtalk::core {
namespace {

struct PipelineFixture : ::testing::Test {
  static constexpr double kFs = 48000.0;

  // Renders a wake word from 2 m, at a head angle relative to the device,
  // optionally replayed through a phone speaker.
  static audio::MultiBuffer render(double angle_deg, bool replay, unsigned seed) {
    std::mt19937 rng(42);
    const auto profile = speech::SpeakerProfile::random(rng);
    audio::Buffer dry =
        speech::synthesize_wake_word(speech::WakeWord::kComputer, profile, seed);
    std::unique_ptr<speech::Directivity> dir;
    if (replay) {
      dry = speech::replay_through(dry, speech::LoudspeakerModel::smartphone(), seed);
      dir = std::make_unique<speech::LoudspeakerDirectivity>(0.012);
    } else {
      dir = std::make_unique<speech::HumanSpeechDirectivity>();
    }
    audio::set_spl(dry, 70.0);

    room::Scene scene(room::Room::lab(), room::DeviceSpec::d2(),
                      room::ArrayPose{{0.5, 2.1, 0.74}, 0.0}, 7);
    const room::Vec3 pos{2.5, 2.1, 1.65};
    const double toward = std::atan2(2.1 - pos.y, 0.5 - pos.x);
    room::RenderOptions opt;
    opt.channels = {0, 1, 3, 4};
    opt.noise_seed = seed;
    return scene.render(dry, {pos, toward + room::deg_to_rad(angle_deg)}, *dir, opt);
  }

  // Builds a trained pipeline from a handful of rendered captures.
  static HeadTalkPipeline make_pipeline() {
    PipelineConfig config;
    config.orientation_features.max_mic_distance_m = 0.09;
    OrientationFeatureExtractor ofe(config.orientation_features);
    LivenessFeatureExtractor lfe(config.liveness_features);

    ml::Dataset orientation_data;
    ml::Dataset liveness_data;
    unsigned seed = 100;
    // The extractors band-pass and trim internally, so the training
    // features equal what score_capture computes on the raw renders.
    for (int rep = 0; rep < 4; ++rep) {
      for (double angle : {0.0, 20.0, -20.0}) {
        const auto cap = render(angle, false, seed++);
        orientation_data.add(ofe.extract(cap), kLabelFacing);
        liveness_data.add(lfe.extract(cap), kLabelLive);
      }
      for (double angle : {120.0, -120.0, 180.0}) {
        const auto cap = render(angle, false, seed++);
        orientation_data.add(ofe.extract(cap), kLabelNonFacing);
        liveness_data.add(lfe.extract(cap), kLabelLive);
      }
      for (double angle : {0.0, 90.0}) {
        const auto cap = render(angle, true, seed++);
        liveness_data.add(lfe.extract(cap), kLabelReplay);
      }
    }
    OrientationClassifier orientation;
    orientation.train(orientation_data);
    LivenessDetectorConfig live_cfg;
    live_cfg.mlp.epochs = 40;
    LivenessDetector liveness(live_cfg);
    liveness.train(liveness_data);
    return HeadTalkPipeline(std::move(orientation), std::move(liveness), config);
  }

  static HeadTalkPipeline& pipeline() {
    static HeadTalkPipeline instance = make_pipeline();
    return instance;
  }
};

TEST_F(PipelineFixture, NormalModeAcceptsEverything) {
  auto& p = pipeline();
  p.set_mode(VaMode::kNormal);
  const auto r = p.process_wake_word(render(180.0, true, 900));
  EXPECT_EQ(r.decision, Decision::kAccepted);
  EXPECT_FALSE(r.liveness_checked);
}

TEST_F(PipelineFixture, MuteModeRejectsEverything) {
  auto& p = pipeline();
  p.set_mode(VaMode::kMute);
  const auto r = p.process_wake_word(render(0.0, false, 901));
  EXPECT_EQ(r.decision, Decision::kRejectedMuted);
}

TEST_F(PipelineFixture, HeadTalkAcceptsFacingHuman) {
  auto& p = pipeline();
  p.set_mode(VaMode::kHeadTalk);
  const auto r = p.process_wake_word(render(0.0, false, 902));
  EXPECT_EQ(r.decision, Decision::kAccepted);
  EXPECT_TRUE(r.liveness_checked);
  EXPECT_TRUE(r.live);
  EXPECT_TRUE(r.orientation_checked);
  EXPECT_TRUE(r.facing);
  EXPECT_TRUE(p.session_active());
}

TEST_F(PipelineFixture, HeadTalkRejectsBackwardHuman) {
  auto& p = pipeline();
  p.set_mode(VaMode::kHeadTalk);
  const auto r = p.process_wake_word(render(180.0, false, 903));
  EXPECT_EQ(r.decision, Decision::kRejectedNotFacing);
  EXPECT_TRUE(r.live);
  EXPECT_FALSE(p.session_active());
}

TEST_F(PipelineFixture, HeadTalkRejectsReplayEvenWhenFacing) {
  auto& p = pipeline();
  p.set_mode(VaMode::kHeadTalk);
  const auto r = p.process_wake_word(render(0.0, true, 904));
  EXPECT_EQ(r.decision, Decision::kRejectedReplay);
  EXPECT_FALSE(r.orientation_checked);  // liveness gate comes first (Fig. 2)
}

TEST_F(PipelineFixture, OpenSessionSkipsOrientationForFollowups) {
  auto& p = pipeline();
  p.set_mode(VaMode::kHeadTalk);
  ASSERT_EQ(p.process_wake_word(render(0.0, false, 905)).decision, Decision::kAccepted);
  ASSERT_TRUE(p.session_active());
  // Follow-up while facing away: still accepted via the open session (§I).
  const auto r = p.process_followup(render(180.0, false, 906));
  EXPECT_EQ(r.decision, Decision::kAccepted);
  EXPECT_TRUE(r.via_open_session);
  EXPECT_FALSE(r.orientation_checked);
  p.end_session();
  EXPECT_FALSE(p.session_active());
  const auto r2 = p.process_followup(render(180.0, false, 907));
  EXPECT_EQ(r2.decision, Decision::kRejectedNotFacing);
}

TEST_F(PipelineFixture, ReplayDuringSessionClosesIt) {
  auto& p = pipeline();
  p.set_mode(VaMode::kHeadTalk);
  ASSERT_EQ(p.process_wake_word(render(0.0, false, 908)).decision, Decision::kAccepted);
  const auto r = p.process_followup(render(0.0, true, 909));
  EXPECT_EQ(r.decision, Decision::kRejectedReplay);
  EXPECT_FALSE(p.session_active());
}

TEST_F(PipelineFixture, SetModeResetsSession) {
  auto& p = pipeline();
  p.set_mode(VaMode::kHeadTalk);
  ASSERT_EQ(p.process_wake_word(render(0.0, false, 910)).decision, Decision::kAccepted);
  p.set_mode(VaMode::kHeadTalk);
  EXPECT_FALSE(p.session_active());
}

TEST_F(PipelineFixture, ScoreCaptureRefusesGeometryTheModelsCannotScore) {
  // The models score 4 channels at 48 kHz. A 3-channel capture throws
  // before any accumulation, naming both feature lengths, whether its
  // liveness verdict would be live or replay; a rate that is no whole
  // multiple of the liveness rate throws too. Normal and Mute score nothing.
  const auto& p = pipeline();
  EXPECT_EQ(p.geometry_error(4, kFs), "");
  const std::size_t model_dim = p.orientation().input_dimension();
  const std::size_t dim =
      OrientationFeatureExtractor(p.config().orientation_features).dimension(3, kFs);
  ASSERT_NE(dim, model_dim);
  const auto first_three = [](const audio::MultiBuffer& capture) {
    return audio::MultiBuffer(
        {capture.channel(0), capture.channel(1), capture.channel(2)});
  };
  const auto live = render(0.0, false, 902);
  const auto replay = render(0.0, true, 904);
  ASSERT_TRUE(p.score_capture(live, VaMode::kHeadTalk, false, false).live);
  ASSERT_EQ(p.score_capture(replay, VaMode::kHeadTalk, false, false).decision,
            Decision::kRejectedReplay);
  for (const auto* capture : {&live, &replay}) {
    const auto three = first_three(*capture);
    try {
      (void)p.score_capture(three, VaMode::kHeadTalk, false, false);
      ADD_FAILURE() << "a 3-channel capture was scored";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(std::to_string(dim)), std::string::npos) << message;
      EXPECT_NE(message.find(std::to_string(model_dim)), std::string::npos) << message;
    }
    EXPECT_EQ(p.score_capture(three, VaMode::kNormal, false, false).decision,
              Decision::kAccepted);
    EXPECT_EQ(p.score_capture(three, VaMode::kMute, false, false).decision,
              Decision::kRejectedMuted);
  }
  std::vector<audio::Buffer> channels;
  for (std::size_t c = 0; c < live.channel_count(); ++c) {
    channels.emplace_back(std::vector<audio::Sample>(live.channel(c).samples().begin(),
                                                     live.channel(c).samples().end()),
                          44100.0);
  }
  EXPECT_NE(p.geometry_error(4, 44100.0), "");
  EXPECT_THROW((void)p.score_capture(audio::MultiBuffer(std::move(channels)),
                                     VaMode::kHeadTalk, false, false),
               std::invalid_argument);
}

TEST(PipelineConstruction, RequiresTrainedDetectors) {
  OrientationClassifier untrained_orientation;
  LivenessDetector untrained_liveness;
  EXPECT_THROW(HeadTalkPipeline(std::move(untrained_orientation),
                                std::move(untrained_liveness)),
               std::invalid_argument);
}

TEST(PipelineNames, Strings) {
  EXPECT_EQ(va_mode_name(VaMode::kHeadTalk), "headtalk");
  EXPECT_EQ(va_mode_name(VaMode::kMute), "mute");
  EXPECT_EQ(decision_name(Decision::kAccepted), "accepted");
  EXPECT_EQ(decision_name(Decision::kRejectedReplay), "rejected-replay");
}

}  // namespace
}  // namespace headtalk::core
