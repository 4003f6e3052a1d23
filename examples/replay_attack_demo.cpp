// Replay-attack scenario (the paper's threat model, §III).
//
// An attacker has recorded the user's wake word and replays it through
// three different devices — a compromised smart TV, a smartphone, and a
// high-end portable speaker — from several positions in the room. A stock
// VA ("normal mode") accepts every one of them; HeadTalk mode rejects them
// via the liveness gate, while still accepting the legitimate user.
//
// Build & run:  ./build/examples/replay_attack_demo
#include <cstdio>
#include <memory>

#include "audio/gain.h"
#include "core/pipeline.h"
#include "room/scene.h"
#include "sim/collector.h"
#include "sim/datasets.h"
#include "sim/experiment.h"

using namespace headtalk;

namespace {

// Enrollment data comes from the simulated protocol (a real device would
// record these during setup).
core::HeadTalkPipeline make_trained_pipeline(const sim::Collector& collector) {
  sim::SpecGrid live;
  live.locations = {{sim::GridRadial::kMiddle, 1.0}, {sim::GridRadial::kMiddle, 3.0}};
  live.angles = {0.0, 15.0, -15.0, 90.0, -90.0, 180.0};
  live.sessions = {0};
  live.repetitions = 2;
  auto replay = live;
  replay.replay = sim::ReplaySource::kSmartphone;
  replay.angles = {0.0, 90.0};

  core::PipelineConfig config;

  ml::Dataset orientation_data, liveness_data;
  for (const auto& spec : live.build()) {
    const auto features = collector.orientation_features(spec);
    const auto arc = core::training_arc(core::FacingDefinition::kDefinition4, spec.angle_deg);
    if (arc == core::TrainingArc::kFacing) {
      orientation_data.add(features, core::kLabelFacing);
    } else if (arc == core::TrainingArc::kNonFacing) {
      orientation_data.add(features, core::kLabelNonFacing);
    }
    liveness_data.add(collector.liveness_features(spec), core::kLabelLive);
  }
  for (const auto& spec : replay.build()) {
    liveness_data.add(collector.liveness_features(spec), core::kLabelReplay);
  }

  core::OrientationClassifier orientation;
  orientation.train(orientation_data);
  core::LivenessDetector liveness;
  liveness.train(liveness_data);
  return core::HeadTalkPipeline(std::move(orientation), std::move(liveness), config);
}

}  // namespace

int main() {
  std::printf("Replay-attack demo\n==================\n");
  sim::Collector collector;

  std::printf("training HeadTalk from enrollment captures...\n\n");
  auto pipeline = make_trained_pipeline(collector);

  struct Attack {
    const char* description;
    sim::ReplaySource source;
    sim::GridLocation location;
    double angle;
  };
  const Attack attacks[] = {
      {"smart TV replays wake word from 3 m, facing", sim::ReplaySource::kTelevision,
       {sim::GridRadial::kMiddle, 3.0}, 0.0},
      {"smartphone replays from 1 m, facing", sim::ReplaySource::kSmartphone,
       {sim::GridRadial::kMiddle, 1.0}, 0.0},
      {"high-end speaker replays from 5 m, facing", sim::ReplaySource::kHighEnd,
       {sim::GridRadial::kMiddle, 5.0}, 0.0},
      {"smartphone replays from 3 m, angled 45 deg", sim::ReplaySource::kSmartphone,
       {sim::GridRadial::kLeft, 3.0}, 45.0},
  };

  for (auto mode : {core::VaMode::kNormal, core::VaMode::kHeadTalk}) {
    pipeline.set_mode(mode);
    std::printf("--- VA in %s mode ---\n", std::string(core::va_mode_name(mode)).c_str());
    int blocked = 0;
    for (const auto& attack : attacks) {
      sim::SampleSpec spec;
      spec.replay = attack.source;
      spec.location = attack.location;
      spec.angle_deg = attack.angle;
      spec.session = 1;  // unseen renditions
      const auto result = pipeline.process_wake_word(collector.capture(spec));
      const bool accepted = result.decision == core::Decision::kAccepted;
      if (!accepted) ++blocked;
      std::printf("  %-46s -> %s\n", attack.description,
                  std::string(core::decision_name(result.decision)).c_str());
      pipeline.end_session();
    }
    // The legitimate user, facing the device.
    sim::SampleSpec user;
    user.location = {sim::GridRadial::kMiddle, 3.0};
    user.angle_deg = 0.0;
    user.session = 1;
    const auto result = pipeline.process_wake_word(collector.capture(user));
    std::printf("  %-46s -> %s\n", "legitimate user, facing, 3 m",
                std::string(core::decision_name(result.decision)).c_str());
    std::printf("  attacks blocked: %d/4\n\n", blocked);
    pipeline.end_session();
  }
  std::printf("normal mode accepts every replay; HeadTalk mode blocks them while\n"
              "still serving the real user.\n");
  return 0;
}
