// Multiple voice assistants in one room (the §I motivation: "multiple VAs
// will likely share the same physical space, which can lead to
// misactivating the wrong VAs").
//
// Two HeadTalk-enabled devices sit on opposite sides of a living room. The
// user speaks the wake word facing one of them; only that device should
// open a session, because the other sees a non-facing capture.
//
// Build & run:  ./build/examples/multi_va_selection
#include <cstdio>
#include <memory>

#include "audio/gain.h"
#include "core/pipeline.h"
#include "room/scene.h"
#include "speech/loudspeaker.h"
#include "speech/synthesizer.h"

using namespace headtalk;

namespace {

struct Device {
  const char* name;
  room::Scene scene;
  std::unique_ptr<core::HeadTalkPipeline> pipeline;
};

audio::MultiBuffer record_at(const room::Scene& scene, const room::Vec3& mouth,
                             double facing_azimuth, unsigned seed) {
  std::mt19937 rng(42);
  static const auto voice = speech::SpeakerProfile::random(rng);
  audio::Buffer dry = speech::synthesize_wake_word(speech::WakeWord::kComputer, voice, seed);
  audio::set_spl(dry, 70.0);
  speech::HumanSpeechDirectivity directivity;
  room::RenderOptions options;
  options.channels = room::DeviceSpec::d2().default_channels;
  options.noise_seed = seed;
  return scene.render(dry, {mouth, facing_azimuth}, directivity, options);
}

core::HeadTalkPipeline train_for_device(const room::Scene& scene) {
  core::PipelineConfig config;
  core::OrientationFeatureExtractor orientation_features(config.orientation_features);
  core::LivenessFeatureExtractor liveness_features(config.liveness_features);

  // Enrollment: the user walks to 2-3 m in front of the device (along its
  // facing axis) and speaks facing / not facing it a few times.
  const auto& center = scene.pose().center;
  const auto front = room::azimuth_direction(scene.pose().yaw_rad);
  ml::Dataset orientation_data, liveness_data;
  unsigned seed = 1000 + static_cast<unsigned>(center.x * 10.0);
  for (double distance : {2.0, 3.0}) {
    for (int rep = 0; rep < 3; ++rep) {
      const room::Vec3 mouth{center.x + front.x * distance,
                             center.y + front.y * distance, 1.65};
      const double toward = std::atan2(center.y - mouth.y, center.x - mouth.x);
      for (double angle : {0.0, 20.0, -20.0}) {
        const auto cap =
            record_at(scene, mouth, toward + room::deg_to_rad(angle), seed++);
        orientation_data.add(orientation_features.extract(cap),
                             core::kLabelFacing);
        liveness_data.add(liveness_features.extract(cap),
                          core::kLabelLive);
      }
      for (double angle : {120.0, -120.0, 180.0}) {
        const auto cap =
            record_at(scene, mouth, toward + room::deg_to_rad(angle), seed++);
        orientation_data.add(orientation_features.extract(cap),
                             core::kLabelNonFacing);
        // Liveness needs a second class; use a crude replay stand-in by
        // reusing live samples is not valid, so train liveness on live +
        // synthetic replays below.
        liveness_data.add(liveness_features.extract(cap),
                          core::kLabelLive);
      }
    }
  }
  // A few replayed utterances for the liveness negative class.
  std::mt19937 rng(42);
  const auto voice = speech::SpeakerProfile::random(rng);
  for (int rep = 0; rep < 6; ++rep) {
    auto dry = speech::synthesize_wake_word(speech::WakeWord::kComputer, voice,
                                            2000u + static_cast<unsigned>(rep));
    dry = speech::replay_through(dry, speech::LoudspeakerModel::television(),
                                 static_cast<unsigned>(rep));
    audio::set_spl(dry, 70.0);
    speech::LoudspeakerDirectivity directivity(0.03);
    room::RenderOptions options;
    options.channels = room::DeviceSpec::d2().default_channels;
    const room::Vec3 tv{center.x + front.x * 2.5, center.y + front.y * 2.5 + 0.5, 1.0};
    const auto cap = scene.render(dry, {tv, 0.0}, directivity, options);
    liveness_data.add(liveness_features.extract(cap),
                      core::kLabelReplay);
  }

  core::OrientationClassifier orientation;
  orientation.train(orientation_data);
  core::LivenessDetector liveness;
  liveness.train(liveness_data);
  core::HeadTalkPipeline pipeline(std::move(orientation), std::move(liveness), config);
  pipeline.set_mode(core::VaMode::kHeadTalk);
  return pipeline;
}

}  // namespace

int main() {
  std::printf("Multi-VA selection demo\n=======================\n\n");

  // Two devices against opposite walls of the lab room, facing each other.
  const room::Room lab = room::Room::lab();
  Device left{"kitchen-va",
              room::Scene(lab, room::DeviceSpec::d2(), {{0.5, 2.1, 0.74}, 0.0}, 7),
              nullptr};
  Device right{"tv-va",
               room::Scene(lab, room::DeviceSpec::d2(),
                           {{5.6, 2.1, 0.74}, 3.14159265}, 8),
               nullptr};
  std::printf("training both devices...\n\n");
  left.pipeline = std::make_unique<core::HeadTalkPipeline>(train_for_device(left.scene));
  right.pipeline = std::make_unique<core::HeadTalkPipeline>(train_for_device(right.scene));

  // The user stands mid-room and alternately addresses each device.
  const room::Vec3 mouth{3.0, 2.1, 1.65};
  struct Trial {
    const char* description;
    double azimuth;  // world facing azimuth
  };
  const double toward_left = std::atan2(2.1 - mouth.y, 0.5 - mouth.x);
  const double toward_right = std::atan2(2.1 - mouth.y, 5.6 - mouth.x);
  const Trial trials[] = {
      {"user faces the kitchen VA", toward_left},
      {"user faces the TV VA", toward_right},
      {"user faces a window (neither)", toward_left + room::deg_to_rad(90.0)},
  };

  unsigned seed = 9000;
  for (const auto& trial : trials) {
    ++seed;
    std::printf("%s:\n", trial.description);
    for (Device* device : {&left, &right}) {
      // Both devices hear the SAME utterance; each from its own position.
      const auto capture = record_at(device->scene, mouth, trial.azimuth, seed);
      const auto result = device->pipeline->process_wake_word(capture);
      std::printf("  %-12s -> %s\n", device->name,
                  std::string(core::decision_name(result.decision)).c_str());
      device->pipeline->end_session();
    }
  }
  std::printf("\nonly the device the user is facing opens a session; speech toward\n"
              "a window activates neither.\n");
  return 0;
}
