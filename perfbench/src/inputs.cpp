// Seeded inputs, the trained models, and the tenant store of one run.
#include <algorithm>
#include <fstream>
#include <random>
#include <stdexcept>

#include "core/facing.h"
#include "core/scoring_workspace.h"
#include "ml/serialize.h"
#include "perfbench.h"
#include "room/mic_array.h"
#include "sim/collector.h"
#include "sim/datasets.h"
#include "sim/experiment.h"
#include "sim/protocol.h"
#include "stream/streaming_detector.h"
#include "tenant/enrollment.h"
#include "tenant/store.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

enum class Kind { kFacingLive, kAwayLive, kReplay };

/// The request pool: every (wake word, speaker) pair once per kind slot,
/// with the distances spread evenly over each kind. Every seed therefore
/// draws the same mix of durations and verdict kinds; the seed moves the
/// angles, radial positions, replay devices and noise draws.
constexpr Kind kPoolKinds[] = {Kind::kFacingLive, Kind::kFacingLive, Kind::kAwayLive,
                               Kind::kReplay};
constexpr std::size_t kPoolSize = 9 * std::size(kPoolKinds);
/// Utterances per streaming scene: two of each kind.
constexpr std::size_t kSceneUtterances = 6;
/// Scene renders tried before a boundary-sensitive scene is kept anyway.
constexpr std::size_t kSceneAttempts = 8;
/// Tenants in the temp store; closed-loop connection i AUTHs as tenant i % T.
constexpr std::size_t kTenants = 2;
/// Models are trained from a fixed seed: they are part of the program
/// under test, not of the workload.
constexpr std::uint32_t kModelSeed = 20230601;

sim::Collector make_collector() {
  sim::CollectorConfig config;
  config.base_seed = kModelSeed;
  // The on-disk feature cache must not be able to change inputs or timing.
  config.cache_enabled = false;
  return sim::Collector(config);
}

template <typename T>
const T& pick(std::mt19937_64& rng, const std::vector<T>& values) {
  return values[static_cast<std::size_t>(rng() % values.size())];
}

/// A capture of `kind` by speaker `user` saying wake word `word` at
/// `distance_m`, with a seeded angle, radial position, session and
/// repetition. `clear_cut` keeps to angles and positions far from the
/// facing boundary (stream scenes, whose verdicts are checked against
/// pre-segmented scoring of the truth span).
sim::SampleSpec random_spec(std::mt19937_64& rng, std::size_t word, unsigned user, Kind kind,
                            double distance_m, bool clear_cut) {
  sim::SampleSpec spec;
  spec.word = speech::all_wake_words()[word % speech::all_wake_words().size()];
  spec.user_id = user;
  spec.location = {clear_cut ? sim::GridRadial::kMiddle
                             : pick(rng, std::vector<sim::GridRadial>{sim::GridRadial::kLeft,
                                                                      sim::GridRadial::kMiddle,
                                                                      sim::GridRadial::kRight}),
                   distance_m};
  spec.session = 2 + static_cast<unsigned>(rng() % 1000);
  spec.repetition = static_cast<unsigned>(rng() % 1000);
  if (kind == Kind::kFacingLive) {
    spec.angle_deg = clear_cut ? pick(rng, std::vector<double>{0.0, 15.0, -15.0})
                               : pick(rng, std::vector<double>{0.0, 15.0, -15.0, 30.0, -30.0});
  } else if (kind == Kind::kAwayLive) {
    spec.angle_deg = clear_cut ? pick(rng, std::vector<double>{120.0, -120.0, 180.0})
                               : pick(rng, std::vector<double>{90.0, -90.0, 135.0, -135.0, 180.0});
  } else {
    spec.replay = pick(rng, std::vector<sim::ReplaySource>{sim::ReplaySource::kSmartphone,
                                                           sim::ReplaySource::kHighEnd});
    spec.angle_deg = clear_cut ? 0.0 : pick(rng, std::vector<double>{0.0, 90.0, 180.0});
  }
  return spec;
}

/// Rounds every sample through float32 — the daemon only ever sees the
/// float32 wire form, so the in-process reference must score that too.
void round_to_float(audio::MultiBuffer& capture) {
  for (std::size_t c = 0; c < capture.channel_count(); ++c) {
    for (auto& x : capture.channel(c).samples()) {
      x = static_cast<double>(static_cast<float>(x));
    }
  }
}

std::vector<float> interleave(const audio::MultiBuffer& capture, std::size_t begin,
                              std::size_t count) {
  const std::size_t channels = capture.channel_count();
  std::vector<float> out(count * channels);
  for (std::size_t f = 0; f < count; ++f) {
    for (std::size_t c = 0; c < channels; ++c) {
      out[f * channels + c] = static_cast<float>(capture.channel(c)[begin + f]);
    }
  }
  return out;
}

ml::Dataset to_dataset(const std::vector<sim::OrientationSample>& samples, int label) {
  ml::Dataset data;
  for (const auto& sample : samples) data.add(sample.features, label);
  return data;
}

void train_models(const sim::Collector& collector, const fs::path& dir, unsigned jobs) {
  sim::SpecGrid grid;
  grid.locations = {{sim::GridRadial::kMiddle, 1.0}, {sim::GridRadial::kMiddle, 3.0}};
  grid.angles = {0.0, 15.0, -15.0, 30.0, -30.0, 90.0, -90.0, 135.0, -135.0, 180.0};
  grid.sessions = {0};
  grid.repetitions = 1;
  const auto orientation_samples =
      sim::collect_orientation(collector, grid.build(), /*progress=*/false, jobs);
  core::OrientationClassifier orientation;
  orientation.train(
      sim::facing_dataset(orientation_samples, core::FacingDefinition::kDefinition4));

  sim::SpecGrid live = grid;
  live.angles = {0.0, 90.0, 180.0};
  sim::SpecGrid phone = live;
  phone.replay = sim::ReplaySource::kSmartphone;
  sim::SpecGrid speaker = live;
  speaker.replay = sim::ReplaySource::kHighEnd;
  ml::Dataset liveness_data;
  liveness_data.append(to_dataset(
      sim::collect_liveness(collector, live.build(), false, jobs), core::kLabelLive));
  liveness_data.append(to_dataset(
      sim::collect_liveness(collector, phone.build(), false, jobs), core::kLabelReplay));
  liveness_data.append(to_dataset(
      sim::collect_liveness(collector, speaker.build(), false, jobs), core::kLabelReplay));
  core::LivenessDetector liveness;
  liveness.train(liveness_data);

  fs::create_directories(dir);
  std::ofstream orientation_out(dir / "orientation.htm", std::ios::binary);
  orientation.save(orientation_out);
  std::ofstream liveness_out(dir / "liveness.htm", std::ios::binary);
  liveness.save(liveness_out);
  if (!orientation_out || !liveness_out) {
    throw std::runtime_error("cannot write models to " + dir.string());
  }
}

core::PipelineConfig daemon_pipeline_config() {
  // Mirrors headtalk_serve's default --device D2.
  core::PipelineConfig config;
  const auto device = room::DeviceSpec::get(room::DeviceId::kD2);
  config.orientation_features.max_mic_distance_m =
      device.max_pair_distance(device.default_channels);
  return config;
}

std::vector<std::string> enroll_tenants(const sim::Collector& collector,
                                        const fs::path& dir) {
  std::vector<tenant::SpeakerProfile> profiles;
  std::vector<std::string> ids;
  for (std::size_t t = 0; t < kTenants; ++t) {
    std::vector<audio::MultiBuffer> captures;
    for (unsigned rep = 0; rep < 3; ++rep) {
      sim::SampleSpec spec;
      spec.location = {sim::GridRadial::kMiddle, 1.0};
      spec.angle_deg = rep == 0 ? 0.0 : (rep == 1 ? 15.0 : -15.0);
      spec.user_id = static_cast<unsigned>(t);
      spec.repetition = rep;
      captures.push_back(collector.capture(spec));
    }
    tenant::EnrollmentConfig config;
    config.rule = tenant::PolicyRule::kEnrolledLiveFacing;
    ids.push_back("tenant" + std::to_string(t));
    profiles.push_back(
        tenant::enroll_profile(daemon_pipeline_config(), captures, ids.back(), config));
  }
  tenant::ModelStore store(dir);
  store.publish_many(profiles);
  return ids;
}

Scene render_scene(const sim::Collector& collector, const std::vector<sim::SampleSpec>& specs) {
  auto rendered = sim::render_stream_scene(collector, specs);
  Scene scene;
  scene.audio = std::move(rendered.audio);
  scene.truth = std::move(rendered.utterances);
  round_to_float(scene.audio);
  scene.interleaved = interleave(scene.audio, 0, scene.audio.frames());
  return scene;
}

/// Utterances of `scene` whose streamed verdict (an in-process detector fed
/// one VAD frame per push) differs from scoring the truth span
/// pre-segmented — verdicts that hinge on where the endpointer cuts.
std::vector<std::size_t> boundary_sensitive(const core::HeadTalkPipeline& pipeline,
                                            const Scene& scene) {
  const std::size_t channels = scene.audio.channel_count();
  core::ScoringWorkspace workspace;
  stream::StreamingDetector detector(pipeline, channels, scene.audio.sample_rate());
  detector.set_workspace(&workspace);
  const std::size_t frame = detector.vad().frame_length();
  std::vector<stream::DecisionEvent> events;
  for (std::size_t k = 0; k + frame <= scene.audio.frames(); k += frame) {
    auto closed = detector.push_interleaved(
        std::span<const float>(scene.interleaved.data() + k * channels, frame * channels));
    events.insert(events.end(), closed.begin(), closed.end());
  }
  auto tail = detector.flush();
  events.insert(events.end(), tail.begin(), tail.end());

  std::vector<std::size_t> sensitive;
  for (std::size_t u = 0; u < scene.truth.size(); ++u) {
    const auto& truth = scene.truth[u];
    const auto match = std::find_if(events.begin(), events.end(), [&](const auto& event) {
      return overlaps(event.begin_seconds, event.end_seconds, truth.begin_seconds,
                      truth.end_seconds);
    });
    const auto presegmented = pipeline.score_capture(
        truth_span(scene, truth), core::VaMode::kHeadTalk, false, false, &workspace);
    if (match == events.end() || match->result.decision != presegmented.decision) {
      sensitive.push_back(u);
    }
  }
  return sensitive;
}

/// `capture` as AUDIO_CHUNK frames of `chunk_frames` frames each.
std::vector<std::uint8_t> encode_chunks(const audio::MultiBuffer& capture,
                                        std::size_t chunk_frames) {
  std::vector<std::uint8_t> bytes;
  const auto channels = static_cast<std::uint16_t>(capture.channel_count());
  for (std::size_t begin = 0; begin < capture.frames(); begin += chunk_frames) {
    const std::size_t n = std::min(chunk_frames, capture.frames() - begin);
    const auto frame = serve::encode_audio_chunk(interleave(capture, begin, n), channels);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

}  // namespace

core::HeadTalkPipeline load_pipeline(const fs::path& models_dir) {
  auto orientation =
      ml::load_model_file<core::OrientationClassifier>(models_dir / "orientation.htm");
  auto liveness = ml::load_model_file<core::LivenessDetector>(models_dir / "liveness.htm");
  return core::HeadTalkPipeline(std::move(orientation), std::move(liveness),
                                daemon_pipeline_config());
}

audio::MultiBuffer truth_span(const Scene& scene, const sim::StreamUtterance& truth) {
  const double fs = scene.audio.sample_rate();
  const auto begin = static_cast<std::size_t>(truth.begin_seconds * fs);
  const auto end =
      std::min(scene.audio.frames(), static_cast<std::size_t>(truth.end_seconds * fs));
  audio::MultiBuffer span(scene.audio.channel_count(), end - begin, fs);
  for (std::size_t c = 0; c < scene.audio.channel_count(); ++c) {
    std::copy_n(scene.audio.channel(c).samples().data() + begin, end - begin,
                span.channel(c).samples().data());
  }
  return span;
}

Inputs make_inputs(const Options& options) {
  const sim::Collector collector = make_collector();
  const auto jobs = static_cast<unsigned>(options.connections);
  Inputs inputs;
  inputs.models_dir = options.work_dir / "models";
  inputs.store_dir = options.work_dir / "store";
  train_models(collector, inputs.models_dir, jobs);
  inputs.tenants = enroll_tenants(collector, inputs.store_dir);

  std::mt19937_64 rng(options.seed);
  const bool streaming = options.workload == Workload::kStreamPaced;
  std::vector<sim::SampleSpec> pool;
  if (!streaming) {
    static constexpr double kDistances[] = {1.0, 3.0, 5.0};
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      pool.push_back(random_spec(rng, i % 3, static_cast<unsigned>(i / 3 % 3),
                                 kPoolKinds[i / 9], kDistances[(i + i / 3) % 3], false));
    }
  }
  // Scene utterance u: kind u / 2, word u % 3, speaker rotating per scene.
  const auto scene_spec = [](std::mt19937_64& scene_rng, std::size_t s, std::size_t u) {
    static constexpr Kind kKinds[] = {Kind::kFacingLive, Kind::kAwayLive, Kind::kReplay};
    return random_spec(scene_rng, u % 3, static_cast<unsigned>((u + s) % 3), kKinds[u / 2 % 3],
                       u % 2 == 0 ? 1.0 : 3.0, true);
  };
  // Streaming connections each get their own scene; the traced run of an
  // utterance workload replays one scene through the streaming layers.
  const std::size_t scene_count = streaming ? options.connections : (options.trace ? 1 : 0);
  const core::HeadTalkPipeline pipeline = load_pipeline(inputs.models_dir);

  inputs.utterances.resize(pool.size());
  inputs.scenes.resize(scene_count);
  util::parallel_for(pool.size() + scene_count, jobs, [&](std::size_t i) {
    if (i < pool.size()) {
      Utterance& u = inputs.utterances[i];
      u.capture = collector.capture(pool[i]);
      round_to_float(u.capture);
      u.chunk_bytes = encode_chunks(u.capture, kUtteranceChunkFrames);
      return;
    }
    // A scene utterance whose verdict depends on the exact segment
    // boundary is re-drawn (from the scene's own seeded stream), so the
    // gate's streamed == pre-segmented check holds for healthy code.
    const std::size_t s = i - pool.size();
    std::mt19937_64 scene_rng(options.seed * 1000003 + s);
    std::vector<sim::SampleSpec> specs;
    for (std::size_t u = 0; u < kSceneUtterances; ++u) specs.push_back(scene_spec(scene_rng, s, u));
    for (std::size_t attempt = 0;; ++attempt) {
      inputs.scenes[s] = render_scene(collector, specs);
      const auto sensitive = boundary_sensitive(pipeline, inputs.scenes[s]);
      if (sensitive.empty() || attempt + 1 == kSceneAttempts) break;
      for (const std::size_t u : sensitive) specs[u] = scene_spec(scene_rng, s, u);
    }
  });

  if (streaming) {
    // The streaming workload's request pool is its scenes' truth spans (the
    // traced run replays those through the whole-utterance layers).
    for (const auto& scene : inputs.scenes) {
      for (const auto& truth : scene.truth) {
        Utterance u;
        u.capture = truth_span(scene, truth);
        u.chunk_bytes = encode_chunks(u.capture, kUtteranceChunkFrames);
        inputs.utterances.push_back(std::move(u));
      }
    }
  }
  return inputs;
}

}  // namespace perfbench
