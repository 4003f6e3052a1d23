// Collector: turns a SampleSpec into a rendered capture and into
// orientation / liveness feature vectors (the simulated equivalent of one
// data-collection trial of §IV). All randomness is derived from the spec,
// so results are deterministic and cacheable.
//
// Thread safety: every method is const and keeps its state (RNGs, scene,
// buffers) on the stack, so one Collector may serve concurrent
// *_features() / capture() calls from the parallel collection engine. The
// only cross-thread rendezvous is FeatureCache::store/load, which is safe
// by construction (unique temp file + atomic rename).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "audio/sample_buffer.h"
#include "core/liveness_features.h"
#include "core/orientation_features.h"
#include "ml/dataset.h"
#include "room/scene.h"
#include "speech/speaker_profile.h"
#include "sim/feature_cache.h"
#include "sim/spec.h"

namespace headtalk::sim {

struct CollectorConfig {
  /// Identity universe: different base seeds produce different speakers,
  /// rooms-states, and noise draws throughout.
  std::uint32_t base_seed = 20230601;
  int ism_order = 3;
  double rir_length_s = 0.12;
  /// Channels rendered/analyzed. Empty = the device's default 4-channel
  /// subset (the paper's default configuration, §IV-A). The mic-count
  /// ablation passes explicit subsets.
  std::vector<std::size_t> channels;
  /// Position/angle jitter modelling human placement error (§VI notes the
  /// protocol could not hold angles exactly).
  double position_jitter_m = 0.03;
  double angle_jitter_deg = 2.5;
  /// Scales the human head's frequency-dependent front-back attenuation
  /// (1.0 = published fit). Exposed for the directivity-sensitivity
  /// ablation: how much of HeadTalk's signal comes from this mechanism?
  double directivity_strength = 1.0;
  bool cache_enabled = true;
  /// On-disk cache size cap in bytes; 0 defers to $HEADTALK_CACHE_LIMIT_MB
  /// (unset → unlimited). See FeatureCache::default_limit_bytes().
  std::uint64_t cache_limit_bytes = 0;
  core::LivenessFeatureConfig liveness{};
};

/// Per-call render toggles for capture(). The streaming scene composer
/// renders utterances with both off and lays one continuous noise floor
/// over the assembled stream, so utterance boundaries are not betrayed by
/// per-render noise seams.
struct CaptureOptions {
  bool ambient = true;     ///< diffuse room-floor ambient noise
  bool self_noise = true;  ///< microphone self-noise
};

class Collector {
 public:
  explicit Collector(CollectorConfig config = {});

  /// Full multichannel render of one trial (never cached; used by the
  /// pipeline-level examples and runtime benchmarks).
  [[nodiscard]] audio::MultiBuffer capture(const SampleSpec& spec) const;

  /// As above with per-call render toggles.
  [[nodiscard]] audio::MultiBuffer capture(const SampleSpec& spec,
                                           const CaptureOptions& options) const;

  /// Orientation feature vector (band-pass + trim + extract; disk-cached).
  /// `workspace` (optional) supplies per-thread scoring scratch for the
  /// cache-miss path — the parallel collection engine passes one per lane;
  /// features are bit-identical with or without it.
  [[nodiscard]] ml::FeatureVector orientation_features(
      const SampleSpec& spec, core::ScoringWorkspace* workspace = nullptr) const;

  /// Liveness feature vector of the capture (disk-cached): what serving
  /// scores for it, bit for bit. `workspace` as for orientation_features().
  [[nodiscard]] ml::FeatureVector liveness_features(
      const SampleSpec& spec, core::ScoringWorkspace* workspace = nullptr) const;

  /// Builds an orientation-feature extractor matched to the spec's device
  /// (lag window from the selected channels' aperture).
  [[nodiscard]] core::OrientationFeatureExtractor orientation_extractor(
      const SampleSpec& spec) const;

  /// Channels used for a spec's device (config override or device default).
  [[nodiscard]] std::vector<std::size_t> channels_for(room::DeviceId device) const;

  /// The exact Scene capture() would render this spec in (room, placement,
  /// furniture state). Exposed so custom harnesses (e.g. moving-speaker
  /// paths) stay inside the same simulated world the training corpus came
  /// from.
  [[nodiscard]] room::Scene scene(const SampleSpec& spec) const;

  /// The voice profile of a user in this collector's identity universe.
  [[nodiscard]] speech::SpeakerProfile speaker(unsigned user_id) const;

  [[nodiscard]] const CollectorConfig& config() const noexcept { return config_; }

  /// The on-disk feature cache (possibly disabled); exposes hit/miss/store
  /// accounting for `--cache-stats` and the bench perf records.
  [[nodiscard]] const FeatureCache& cache() const noexcept { return cache_; }

 private:
  [[nodiscard]] std::string cache_key(const SampleSpec& spec, const char* kind) const;

  CollectorConfig config_;
  FeatureCache cache_;
};

}  // namespace headtalk::sim
