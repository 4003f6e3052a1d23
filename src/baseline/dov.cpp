#include "baseline/dov.h"

#include <cmath>
#include <stdexcept>

#include "core/incremental_extractor.h"
#include "dsp/srp.h"

namespace headtalk::baseline {

int DovFeatureExtractor::effective_max_lag(double sample_rate) const {
  if (config_.max_lag > 0) return config_.max_lag;
  return dsp::srp_max_lag(config_.max_mic_distance_m, sample_rate,
                          config_.speed_of_sound);
}

std::size_t DovFeatureExtractor::dimension(std::size_t channels) const {
  const std::size_t pairs = channels * (channels - 1) / 2;
  const auto lag = static_cast<std::size_t>(effective_max_lag(audio::kDefaultSampleRate));
  return pairs * (2 * lag + 1) + pairs;
}

ml::FeatureVector DovFeatureExtractor::extract(const audio::MultiBuffer& capture) const {
  if (capture.channel_count() < 2) {
    throw std::invalid_argument("DovFeatureExtractor: need >= 2 channels");
  }
  // The same GCC estimate HeadTalk's SRP is built from: the operator's
  // band-passed, trimmed, coherence-pruned per-pair windows.
  core::IncrementalExtractorConfig op_config;
  op_config.orientation.max_lag = effective_max_lag(capture.sample_rate());
  op_config.enable_liveness = false;
  core::IncrementalExtractor op;
  op.begin(op_config, capture.channel_count(), capture.sample_rate());
  op.push(capture);
  (void)op.finalize_orientation();

  ml::FeatureVector features;
  features.reserve(dimension(capture.channel_count()));
  for (std::size_t p = 0; p < op.pair_count(); ++p) {
    const auto window = op.pair_gcc(p);
    features.insert(features.end(), window.begin(), window.end());
  }
  for (std::size_t p = 0; p < op.pair_count(); ++p) {
    features.push_back(static_cast<double>(op.pair_tdoa(p)));
  }
  return features;
}

std::string_view dov_facing_name(DovFacing definition) {
  switch (definition) {
    case DovFacing::kDirectlyFacing:
      return "Directly-Facing";
    case DovFacing::kForwardFacing:
      return "Forward-Facing";
    case DovFacing::kMouthLineOfSight:
      return "Mouth-Line-of-Sight";
  }
  return "?";
}

bool dov_is_facing(DovFacing definition, double angle_deg) {
  const double a = std::abs(angle_deg);
  switch (definition) {
    case DovFacing::kDirectlyFacing:
      return a < 1.0;
    case DovFacing::kForwardFacing:
      return a < 46.0;
    case DovFacing::kMouthLineOfSight:
      return a < 91.0;
  }
  return false;
}

}  // namespace headtalk::baseline
