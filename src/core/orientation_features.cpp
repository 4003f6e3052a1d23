#include "core/orientation_features.h"

#include <stdexcept>

#include "core/incremental_extractor.h"
#include "core/scoring_workspace.h"
#include "dsp/srp.h"

namespace headtalk::core {

int OrientationFeatureExtractor::effective_max_lag(double sample_rate) const {
  if (config_.max_lag > 0) return config_.max_lag;
  return dsp::srp_max_lag(config_.max_mic_distance_m, sample_rate,
                          config_.speed_of_sound);
}

std::size_t OrientationFeatureExtractor::dimension(std::size_t channels) const {
  const std::size_t pairs = channels * (channels - 1) / 2;
  // Lag-window length is only known with a sample rate; assume the default
  // capture rate, which every prototype device uses.
  const auto lag = static_cast<std::size_t>(effective_max_lag(audio::kDefaultSampleRate));
  const std::size_t seq_len = 2 * lag + 1;
  return config_.srp_peaks + 5        // SRP peaks + SRP summary stats
         + pairs * seq_len + pairs    // GCC sequences + TDoAs
         + pairs * 5                  // per-pair GCC summary stats
         + 1                          // HLBR
         + 3 * config_.low_band_chunks;
}

ml::FeatureVector OrientationFeatureExtractor::extract(
    const audio::MultiBuffer& capture, ScoringWorkspace* workspace) const {
  if (capture.channel_count() < 2) {
    throw std::invalid_argument("OrientationFeatureExtractor: need >= 2 channels");
  }
  // One definition for batch and streamed extraction: run the whole
  // capture through the incremental operator in a single push. Chunk
  // invariance makes this bit-identical to frame-by-frame streaming.
  IncrementalExtractorConfig op_config;
  op_config.orientation = config_;
  op_config.enable_liveness = false;
  IncrementalExtractor local;
  IncrementalExtractor* op = &local;
  if (workspace != nullptr) {
    workspace->note_use();
    op = &workspace->incremental();
  }
  op->begin(op_config, capture.channel_count(), capture.sample_rate());
  op->push(capture);
  return op->finalize_orientation();
}

}  // namespace headtalk::core
