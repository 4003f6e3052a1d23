#include "tenant/enrollment.h"

#include <cmath>
#include <vector>

#include "core/liveness_features.h"
#include "core/orientation_features.h"

namespace headtalk::tenant {
namespace {

/// Mean + sigma-floored stddev over one feature family; all vectors must
/// share the dimension of the first.
FeatureStats summarize(const std::vector<std::span<const double>>& vectors,
                       double sigma_floor_fraction) {
  FeatureStats stats;
  if (vectors.empty()) return stats;
  const std::size_t dim = vectors.front().size();
  for (const auto& v : vectors) {
    if (v.size() != dim) {
      throw EnrollmentError("enrollment: feature dimension varies across captures");
    }
  }
  stats.centroid.assign(dim, 0.0);
  for (const auto& v : vectors) {
    for (std::size_t i = 0; i < dim; ++i) stats.centroid[i] += v[i];
  }
  const double n = static_cast<double>(vectors.size());
  for (double& c : stats.centroid) c /= n;

  stats.spread.assign(dim, 0.0);
  for (const auto& v : vectors) {
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = v[i] - stats.centroid[i];
      stats.spread[i] += d * d;
    }
  }
  double centroid_rms = 0.0;
  for (const double c : stats.centroid) centroid_rms += c * c;
  centroid_rms = std::sqrt(centroid_rms / static_cast<double>(dim));
  const double floor = std::max(1e-6, sigma_floor_fraction * centroid_rms);
  for (double& s : stats.spread) {
    s = std::max(floor, std::sqrt(s / n));
  }
  return stats;
}

}  // namespace

SpeakerProfile enroll_from_features(std::span<const core::FeatureCapture> features,
                                    std::string tenant_id,
                                    const EnrollmentConfig& config) {
  if (!is_valid_tenant_id(tenant_id)) {
    throw EnrollmentError("enrollment: invalid tenant id '" + tenant_id + "'");
  }
  if (features.size() < config.min_captures) {
    throw EnrollmentError("enrollment: " + std::to_string(features.size()) +
                          " capture(s), need at least " +
                          std::to_string(config.min_captures));
  }
  const bool has_orientation = !features.front().orientation.empty();
  const bool has_liveness = !features.front().liveness.empty();
  if (!has_orientation && !has_liveness) {
    throw EnrollmentError("enrollment: captures carry no feature vectors");
  }
  std::vector<std::span<const double>> orientation_vectors;
  std::vector<std::span<const double>> liveness_vectors;
  for (const auto& capture : features) {
    if (capture.orientation.empty() == has_orientation ||
        capture.liveness.empty() == has_liveness) {
      throw EnrollmentError(
          "enrollment: feature families inconsistent across captures");
    }
    if (has_orientation) orientation_vectors.emplace_back(capture.orientation);
    if (has_liveness) liveness_vectors.emplace_back(capture.liveness);
  }

  SpeakerProfile profile;
  profile.tenant_id = std::move(tenant_id);
  profile.rule = config.rule;
  profile.quota_per_minute = config.quota_per_minute;
  profile.enrolled_captures = static_cast<std::uint32_t>(features.size());
  profile.orientation = summarize(orientation_vectors, config.sigma_floor_fraction);
  profile.liveness = summarize(liveness_vectors, config.sigma_floor_fraction);

  // Calibrate: every enrollment capture must re-match its own profile, so
  // the threshold sits a margin below the hardest self-match.
  double min_self = 1.0;
  for (const auto& capture : features) {
    min_self = std::min(min_self, profile.match(capture));
  }
  profile.threshold =
      std::max(config.min_threshold, min_self * config.threshold_margin);
  return profile;
}

SpeakerProfile enroll_profile(const core::PipelineConfig& pipeline_config,
                              std::span<const audio::MultiBuffer> captures,
                              std::string tenant_id, const EnrollmentConfig& config) {
  if (captures.size() < config.min_captures) {
    throw EnrollmentError("enrollment: " + std::to_string(captures.size()) +
                          " capture(s), need at least " +
                          std::to_string(config.min_captures));
  }
  const std::size_t channels = captures.front().channel_count();
  const core::OrientationFeatureExtractor orientation_extractor(
      pipeline_config.orientation_features);
  const core::LivenessFeatureExtractor liveness_extractor(
      pipeline_config.liveness_features);
  std::vector<core::FeatureCapture> features;
  features.reserve(captures.size());
  for (const auto& capture : captures) {
    if (capture.channel_count() != channels) {
      throw EnrollmentError("enrollment: channel count varies across captures");
    }
    // The extractors band-pass and trim internally with the operator's
    // config, so enrolled profiles match what streamed scoring computes at
    // match time.
    core::FeatureCapture extracted;
    extracted.liveness =
        liveness_extractor.extract(capture.channel(0));
    // Orientation needs inter-channel structure; a single-channel capture
    // enrolls on liveness features alone.
    if (channels > 1) {
      extracted.orientation =
          orientation_extractor.extract(capture);
    }
    features.push_back(std::move(extracted));
  }
  return enroll_from_features(features, std::move(tenant_id), config);
}

}  // namespace headtalk::tenant
