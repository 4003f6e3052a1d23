// Baseline: Direction-of-Voice (DoV) estimation after Ahuja et al. [13].
//
// DoV's classifier consumes GCC-PHAT features only (per-pair correlation
// sequences + TDoA) — no SRP-PHAT peak structure and no speech-directivity
// (HLBR / banded low-band) features — and uses different facing
// definitions. The GCC windows are the ones HeadTalk's SRP is summed from
// (core::IncrementalExtractor, coherence pruning included), so the
// comparison isolates the feature sets rather than the estimators.
// HeadTalk's §II comparison claims ~+3% accuracy over this approach on the
// same data; bench_vs_ahuja_baseline runs that head-to-head.
#pragma once

#include <string_view>
#include <vector>

#include "audio/sample_buffer.h"
#include "ml/dataset.h"

namespace headtalk::baseline {

struct DovFeatureConfig {
  int max_lag = 0;                   ///< 0 = derive from mic spacing
  double max_mic_distance_m = 0.09;
  double speed_of_sound = 340.0;
};

/// GCC-PHAT-only feature extractor (the DoV paper's primary feature).
class DovFeatureExtractor {
 public:
  explicit DovFeatureExtractor(DovFeatureConfig config = {}) : config_(config) {}

  /// Features of a raw capture (band-passed and trimmed internally).
  [[nodiscard]] ml::FeatureVector extract(const audio::MultiBuffer& capture) const;
  [[nodiscard]] std::size_t dimension(std::size_t channels) const;
  [[nodiscard]] int effective_max_lag(double sample_rate) const;

 private:
  DovFeatureConfig config_;
};

/// Ahuja et al.'s three facing definitions (§III-B1 of the HeadTalk paper).
enum class DovFacing {
  kDirectlyFacing,    ///< 0 degrees only
  kForwardFacing,     ///< 0 and +/-45
  kMouthLineOfSight,  ///< 0, +/-45, +/-90
};

[[nodiscard]] std::string_view dov_facing_name(DovFacing definition);

/// Whether an angle counts as facing under a DoV definition.
[[nodiscard]] bool dov_is_facing(DovFacing definition, double angle_deg);

}  // namespace headtalk::baseline
