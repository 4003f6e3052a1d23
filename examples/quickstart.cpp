// Quickstart: the minimal end-to-end HeadTalk flow.
//
// 1. Enroll: render a handful of facing / non-facing / replayed wake words
//    (in a real deployment these come from the device's microphones during
//    setup) and train the two detectors.
// 2. Run: put the pipeline in HeadTalk mode and feed it wake-word captures
//    from different head angles and from a replay attack.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "audio/gain.h"
#include "core/pipeline.h"
#include "room/scene.h"
#include "speech/loudspeaker.h"
#include "speech/synthesizer.h"

using namespace headtalk;

namespace {

// Renders one wake-word capture: a talker 2.5 m in front of a ReSpeaker
// Core v2 in a living-room-like lab, head turned `angle_deg` away from the
// device (0 = facing). `replay` swaps the human for a phone speaker.
audio::MultiBuffer record_wake_word(double angle_deg, bool replay, unsigned seed) {
  static const room::Scene scene(room::Room::lab(), room::DeviceSpec::d2(),
                                 room::ArrayPose{{0.5, 2.1, 0.74}, 0.0}, /*scatter_seed=*/7);
  std::mt19937 rng(42);
  static const auto voice = speech::SpeakerProfile::random(rng);

  audio::Buffer dry = speech::synthesize_wake_word(speech::WakeWord::kComputer, voice, seed);
  std::unique_ptr<speech::Directivity> directivity;
  if (replay) {
    dry = speech::replay_through(dry, speech::LoudspeakerModel::smartphone(), seed);
    directivity = std::make_unique<speech::LoudspeakerDirectivity>(0.012);
  } else {
    directivity = std::make_unique<speech::HumanSpeechDirectivity>();
  }
  audio::set_spl(dry, 70.0);  // normal conversational loudness

  const room::Vec3 mouth{3.0, 2.1, 1.65};
  const double toward_device = std::atan2(2.1 - mouth.y, 0.5 - mouth.x);
  room::RenderOptions options;
  options.channels = room::DeviceSpec::d2().default_channels;
  options.noise_seed = seed;
  return scene.render(dry, {mouth, toward_device + room::deg_to_rad(angle_deg)},
                      *directivity, options);
}

}  // namespace

int main() {
  std::printf("HeadTalk quickstart\n===================\n\n");

  // --- 1. Enrollment -------------------------------------------------
  std::printf("enrolling (rendering training wake words)...\n");
  core::PipelineConfig config;
  core::OrientationFeatureExtractor orientation_features(config.orientation_features);
  core::LivenessFeatureExtractor liveness_features(config.liveness_features);

  ml::Dataset orientation_data, liveness_data;
  unsigned seed = 1;
  // The extractors band-pass and trim raw captures internally, exactly as
  // the pipeline scores them, so training matches scoring.
  for (int rep = 0; rep < 4; ++rep) {
    for (double angle : {0.0, 20.0, -20.0}) {  // facing examples
      const auto cap = record_wake_word(angle, false, seed++);
      orientation_data.add(orientation_features.extract(cap),
                           core::kLabelFacing);
      liveness_data.add(liveness_features.extract(cap),
                        core::kLabelLive);
    }
    for (double angle : {110.0, -110.0, 180.0}) {  // non-facing examples
      const auto cap = record_wake_word(angle, false, seed++);
      orientation_data.add(orientation_features.extract(cap),
                           core::kLabelNonFacing);
      liveness_data.add(liveness_features.extract(cap),
                        core::kLabelLive);
    }
    for (double angle : {0.0, 90.0}) {  // replay examples
      const auto cap = record_wake_word(angle, true, seed++);
      liveness_data.add(liveness_features.extract(cap),
                        core::kLabelReplay);
    }
  }
  core::OrientationClassifier orientation;
  orientation.train(orientation_data);
  core::LivenessDetector liveness;
  liveness.train(liveness_data);
  core::HeadTalkPipeline pipeline(std::move(orientation), std::move(liveness), config);
  std::printf("enrolled with %zu orientation and %zu liveness samples.\n\n",
              orientation_data.size(), liveness_data.size());

  // --- 2. HeadTalk mode in action ------------------------------------
  pipeline.set_mode(core::VaMode::kHeadTalk);
  std::printf("\"Alexa, enter HeadTalk mode\" -> mode = %s\n\n",
              std::string(core::va_mode_name(pipeline.mode())).c_str());

  struct Trial {
    const char* description;
    double angle;
    bool replay;
  };
  const Trial trials[] = {
      {"user says wake word, facing the device (0 deg)", 0.0, false},
      {"user says wake word, head turned 15 deg", 15.0, false},
      {"user speaks away from the device (180 deg)", 180.0, false},
      {"background chat at 90 deg", 90.0, false},
      {"smart-TV replays the wake word (facing!)", 0.0, true},
  };
  unsigned trial_seed = 500;
  for (const auto& trial : trials) {
    const auto result =
        pipeline.process_wake_word(record_wake_word(trial.angle, trial.replay, trial_seed++));
    std::printf("%-48s -> %s", trial.description,
                std::string(core::decision_name(result.decision)).c_str());
    if (result.liveness_checked) std::printf("  (live=%.2f)", result.liveness_score);
    std::printf("\n");
    pipeline.end_session();  // evaluate each trial independently
  }

  // --- 3. Session behaviour ------------------------------------------
  std::printf("\nsession demo: wake word facing, then a follow-up command while\n"
              "walking away (should still be accepted within the session):\n");
  const auto wake = pipeline.process_wake_word(record_wake_word(0.0, false, 900));
  std::printf("  wake word   -> %s\n", std::string(core::decision_name(wake.decision)).c_str());
  const auto followup = pipeline.process_followup(record_wake_word(170.0, false, 901));
  std::printf("  follow-up   -> %s (via open session: %s)\n",
              std::string(core::decision_name(followup.decision)).c_str(),
              followup.via_open_session ? "yes" : "no");
  return 0;
}
