// Liveness (human vs. mechanical speaker) feature extraction (§III-A).
//
// The discriminative physics (Fig. 3): live speech has genuine high-band
// (> 4 kHz) energy with an exponential decay around 4 kHz, while replayed
// audio has a weaker, flatter high band made of distortion products. We
// summarize a single preprocessed channel — downsampled to 16 kHz and
// normalized to zero mean / unit variance, exactly the wav2vec2 input
// convention the paper uses — into log band energies plus spectral shape
// measures that carry that signature.
#pragma once

#include "audio/sample_buffer.h"
#include "ml/dataset.h"

namespace headtalk::core {

class ScoringWorkspace;

struct LivenessFeatureConfig {
  double model_sample_rate = audio::kLivenessSampleRate;  // 16 kHz
  std::size_t log_bands = 32;       ///< equal-width bands over [100, 7900] Hz
  double band_lo = 100.0;
  double band_hi = 7900.0;
  std::size_t stft_frame = 512;     ///< 32 ms analysis frames at 16 kHz
  std::size_t stft_hop = 256;
};

class LivenessFeatureExtractor {
 public:
  explicit LivenessFeatureExtractor(LivenessFeatureConfig config = {})
      : config_(config) {}

  /// Extracts features from one raw channel of a capture (any sample rate;
  /// the channel is band-passed, silence-trimmed with a default
  /// PreprocessConfig, and resampled internally by the incremental
  /// operator this call delegates to — identical to streaming the channel
  /// frame by frame). `workspace` (optional) supplies reusable scratch;
  /// it never changes the result.
  [[nodiscard]] ml::FeatureVector extract(const audio::Buffer& channel,
                                          ScoringWorkspace* workspace = nullptr) const;

  [[nodiscard]] std::size_t dimension() const noexcept {
    return config_.log_bands + 6;
  }

  [[nodiscard]] const LivenessFeatureConfig& config() const noexcept { return config_; }

 private:
  LivenessFeatureConfig config_;
};

}  // namespace headtalk::core
