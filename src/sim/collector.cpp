#include "sim/collector.h"

#include <cmath>
#include <memory>
#include <random>

#include "audio/gain.h"
#include "core/incremental_extractor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "room/scene.h"
#include "speech/directivity.h"
#include "speech/loudspeaker.h"
#include "speech/speaker_profile.h"
#include "speech/synthesizer.h"

namespace headtalk::sim {
namespace {

std::uint32_t seed_of(std::string_view key, std::uint32_t base, std::uint32_t salt) {
  return static_cast<std::uint32_t>(fnv1a64(key)) ^ (base * 2654435761u) ^ salt;
}

}  // namespace

Collector::Collector(CollectorConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_enabled ? FeatureCache::default_directory()
                                   : std::filesystem::path{},
             config_.cache_limit_bytes != 0 ? config_.cache_limit_bytes
                                            : FeatureCache::default_limit_bytes()) {}

std::vector<std::size_t> Collector::channels_for(room::DeviceId device) const {
  if (!config_.channels.empty()) return config_.channels;
  return room::DeviceSpec::get(device).default_channels;
}

core::OrientationFeatureExtractor Collector::orientation_extractor(
    const SampleSpec& spec) const {
  const auto device = room::DeviceSpec::get(spec.device);
  const auto channels = channels_for(spec.device);
  core::OrientationFeatureConfig cfg;
  cfg.max_mic_distance_m = device.max_pair_distance(channels);
  return core::OrientationFeatureExtractor(cfg);
}

room::Scene Collector::scene(const SampleSpec& spec) const {
  auto room_model = make_room(spec.room);
  auto pose = placement_pose(spec.room, spec.placement);
  pose.center.z += spec.device_height_offset_m;
  const auto day_tag = static_cast<std::uint32_t>(spec.temporal_days);
  const auto scatter_seed =
      (config_.base_seed * 31u) ^ (static_cast<std::uint32_t>(spec.room) << 8) ^
      (static_cast<std::uint32_t>(spec.placement) << 12) ^ (day_tag * 2246822519u);
  const auto session_seed =
      room_model.dynamic_clutter ? (spec.session + 1) * 2654435761u + day_tag : 0u;
  return room::Scene(room_model, room::DeviceSpec::get(spec.device), pose, scatter_seed,
                     session_seed);
}

speech::SpeakerProfile Collector::speaker(unsigned user_id) const {
  std::mt19937 id_rng(config_.base_seed + 7700 * user_id);
  return speech::SpeakerProfile::random(id_rng);
}

audio::MultiBuffer Collector::capture(const SampleSpec& spec) const {
  return capture(spec, CaptureOptions{});
}

audio::MultiBuffer Collector::capture(const SampleSpec& spec,
                                      const CaptureOptions& capture_options) const {
  obs::ScopedSpan span("sim.render");
  static obs::Histogram& render_seconds =
      obs::Registry::global().histogram("sim.render_seconds");
  obs::Timer timer(&render_seconds);
  const std::string key = spec.key();

  // --- Speaker identity (with temporal drift) ---
  std::mt19937 id_rng(config_.base_seed + 7700 * spec.user_id);
  auto profile = speech::SpeakerProfile::random(id_rng);
  // Other users differ physically, not just acoustically: stature moves the
  // mouth height, and head/torso geometry changes the radiation pattern —
  // both shift the array features and are what makes the cross-user setting
  // (§IV-B14) genuinely harder than same-user. User 0 (the enrolled user)
  // is the calibration reference.
  double mouth_height = spec.mouth_height_m;
  double user_directivity = config_.directivity_strength;
  if (spec.user_id > 0) {
    mouth_height += std::uniform_real_distribution<double>(-0.13, 0.15)(id_rng);
    user_directivity *= std::uniform_real_distribution<double>(0.75, 1.3)(id_rng);
  }
  if (spec.temporal_days > 0.0) {
    std::mt19937 drift_rng(seed_of(key, config_.base_seed, 0x5d5d) ^
                           static_cast<std::uint32_t>(spec.temporal_days * 16.0) ^
                           (7700 * spec.user_id));
    profile = profile.drifted(spec.temporal_days, drift_rng);
  }

  // --- Dry utterance ---
  const auto synth_seed = seed_of(key, config_.base_seed, 0xA001);
  audio::Buffer dry = speech::synthesize_wake_word(spec.word, profile, synth_seed);

  // --- Replay chain (mechanical source) ---
  std::unique_ptr<speech::Directivity> directivity;
  if (spec.replay == ReplaySource::kNone) {
    directivity = std::make_unique<speech::HumanSpeechDirectivity>(user_directivity);
  } else {
    speech::LoudspeakerModel model;
    switch (spec.replay) {
      case ReplaySource::kHighEnd:
        model = speech::LoudspeakerModel::high_end();
        break;
      case ReplaySource::kSmartphone:
        model = speech::LoudspeakerModel::smartphone();
        break;
      default:
        model = speech::LoudspeakerModel::television();
        break;
    }
    dry = speech::replay_through(dry, model, seed_of(key, config_.base_seed, 0xA002));
    directivity = std::make_unique<speech::LoudspeakerDirectivity>(model.diaphragm_radius_m);
  }
  audio::set_spl(dry, spec.loudness_db);

  // --- Scene (room state changes across days and, in dynamic-clutter
  // rooms, across sessions; see scene()) ---
  const room::Scene scene = this->scene(spec);
  const auto& pose = scene.pose();

  // --- Source pose with human placement jitter ---
  std::mt19937 jitter_rng(seed_of(key, config_.base_seed, 0xB003));
  std::normal_distribution<double> gauss(0.0, 1.0);
  auto position = grid_position(spec.room, spec.placement, spec.location, mouth_height);
  position.x += config_.position_jitter_m * gauss(jitter_rng);
  position.y += config_.position_jitter_m * gauss(jitter_rng);
  // Mouth height wobbles trial-to-trial too (posture, head tilt); without
  // this the classifier can latch onto the exact floor-reflection comb
  // positions, which would make any posture change look catastrophic.
  position.z += 1.5 * config_.position_jitter_m * gauss(jitter_rng);
  const double angle =
      spec.angle_deg + config_.angle_jitter_deg * gauss(jitter_rng);
  room::SourcePose source{position, facing_azimuth(position, pose, angle)};

  // --- Render options ---
  room::RenderOptions options;
  options.ism.max_order = config_.ism_order;
  options.rir_length_s = config_.rir_length_s;
  options.noise_seed = seed_of(key, config_.base_seed, 0xC004);
  options.channels = channels_for(spec.device);
  options.add_ambient = capture_options.ambient;
  options.add_self_noise = capture_options.self_noise;
  if (spec.occlusion == OcclusionLevel::kPartial) {
    options.occlusion = room::Occlusion::partial();
  } else if (spec.occlusion == OcclusionLevel::kFull) {
    options.occlusion = room::Occlusion::full();
  }

  auto capture = scene.render(dry, source, *directivity, options);

  // --- Intentional ambient interference (§IV-B10) ---
  // The paper *plays* its noise (white noise / a TV series) in the room, so
  // it reaches the array as a spatially coherent point source — which is
  // what corrupts the inter-channel features, unlike the diffuse room
  // floor. We park the noise loudspeaker off to the device's side.
  if (spec.ambient_spl_db >= 0.0) {
    const double fs = dry.sample_rate();
    auto noise_content =
        room::make_noise(spec.ambient_type, capture.frames(), fs,
                         audio::kFullScaleSplDb, seed_of(key, config_.base_seed, 0xD005));
    const room::Vec3 noise_pos{pose.center.x + 2.0, pose.center.y - 1.0, 0.9};
    const double distance = noise_pos.distance(pose.center);
    // Emit so the level *at the device* matches the requested SPL.
    audio::set_spl(noise_content,
                   spec.ambient_spl_db + 20.0 * std::log10(std::max(1.0, distance)));
    speech::LoudspeakerDirectivity noise_speaker(0.05);
    room::RenderOptions noise_options = options;
    noise_options.add_ambient = false;
    noise_options.add_self_noise = false;
    noise_options.occlusion.reset();
    noise_options.noise_seed = options.noise_seed + 17;
    auto interference = scene.render(
        noise_content, {noise_pos, 0.0}, noise_speaker, noise_options);
    // Trim/pad to the capture length before mixing.
    for (std::size_t c = 0; c < capture.channel_count(); ++c) {
      for (std::size_t i = 0; i < capture.frames() && i < interference.frames(); ++i) {
        capture.channel(c)[i] += interference.channel(c)[i];
      }
    }
  }
  return capture;
}

std::string Collector::cache_key(const SampleSpec& spec, const char* kind) const {
  std::string key = spec.key();
  key += "|kind=";
  key += kind;
  key += "|seed=" + std::to_string(config_.base_seed);
  key += "|ism=" + std::to_string(config_.ism_order);
  key += "|rir=" + std::to_string(config_.rir_length_s);
  key += "|ch=";
  for (std::size_t c : channels_for(spec.device)) {
    key += std::to_string(c);
    key += ',';
  }
  if (config_.directivity_strength != 1.0) {
    key += "|dir=" + std::to_string(config_.directivity_strength);
  }
  if (spec.ambient_spl_db >= 0.0) {
    key += "|ptnoise=1";  // intentional interference renders as a point source
  }
  if (spec.user_id > 0) {
    key += "|uphys=1";  // per-user stature/directivity variation
  }
  if (spec.occlusion != OcclusionLevel::kNone) {
    key += "|occv=2";  // occlusion attenuation constants revision
  }
  if (spec.room == RoomId::kHome) {
    key += "|dyn=2";  // dynamic-clutter movable fraction revision
  }
  // The operator's feature revision (its history lives beside it).
  key += "|v=" + std::to_string(core::kFeatureVersion);
  return key;
}

ml::FeatureVector Collector::orientation_features(
    const SampleSpec& spec, core::ScoringWorkspace* workspace) const {
  obs::ScopedSpan span("sim.orientation_features");
  const auto key = cache_key(spec, "orient2");
  if (auto hit = cache_.load(key)) return *hit;
  const auto raw = capture(spec);
  // The extractor band-passes and trims internally, so training features
  // share one definition with streamed scoring.
  const auto features = orientation_extractor(spec).extract(raw, workspace);
  cache_.store(key, features);
  return features;
}

ml::FeatureVector Collector::liveness_features(const SampleSpec& spec,
                                               core::ScoringWorkspace* workspace) const {
  obs::ScopedSpan span("sim.liveness_features");
  const auto key = cache_key(spec, "live");
  if (auto hit = cache_.load(key)) return *hit;
  // The whole capture, so the trim is the one serving decides.
  const auto features =
      core::LivenessFeatureExtractor(config_.liveness).extract(capture(spec), workspace);
  cache_.store(key, features);
  return features;
}

}  // namespace headtalk::sim
