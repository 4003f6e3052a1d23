// Enrollment: N captures of one speaker -> a SpeakerProfile.
//
// Two entry points. enroll_profile() is the production path: it runs each
// capture through the same preprocessing and feature extractors the
// scoring pipeline uses (built from a core::PipelineConfig — no trained
// classifiers needed, enrollment happens before or independently of
// training) and summarizes the vectors. enroll_from_features() is the
// core: per-dimension mean + sigma-floored standard deviation per feature
// family, plus a threshold calibrated against the enrollment set itself —
// the minimum self-match score scaled by a margin, so every enrollment
// capture re-matches its own profile with room to spare.
#pragma once

#include <span>
#include <stdexcept>
#include <string>

#include "audio/sample_buffer.h"
#include "core/pipeline.h"
#include "tenant/profile.h"

namespace headtalk::tenant {

class EnrollmentError : public std::runtime_error {
 public:
  explicit EnrollmentError(const std::string& what) : std::runtime_error(what) {}
};

struct EnrollmentConfig {
  /// Fewer captures than this throws (a 1-capture "centroid" has no spread).
  std::size_t min_captures = 2;
  /// Per-dimension standard-deviation floor, as a fraction of the feature
  /// family's RMS centroid magnitude (absolute floor 1e-6) — a dimension
  /// that never varied across enrollment must not divide by ~0 at match
  /// time.
  double sigma_floor_fraction = 0.05;
  /// threshold = max(min_threshold, min self-match score * margin).
  double threshold_margin = 0.85;
  double min_threshold = 0.3;
  PolicyRule rule = PolicyRule::kEnrolledLiveFacing;
  std::uint32_t quota_per_minute = 0;  ///< 0 = unlimited
};

/// Summarizes already-extracted feature captures. Every capture must carry
/// the same feature families at the same dimensions; families absent from
/// the first capture must be absent from all.
[[nodiscard]] SpeakerProfile enroll_from_features(
    std::span<const core::FeatureCapture> features, std::string tenant_id,
    const EnrollmentConfig& config = {});

/// Full enrollment path: preprocess + extract (orientation over all
/// channels, liveness from channel 0 over the all-channel trim, as
/// serving computes them) with extractors built from
/// `pipeline_config`, then enroll_from_features. All captures must share
/// one channel count.
[[nodiscard]] SpeakerProfile enroll_profile(
    const core::PipelineConfig& pipeline_config,
    std::span<const audio::MultiBuffer> captures, std::string tenant_id,
    const EnrollmentConfig& config = {});

}  // namespace headtalk::tenant
