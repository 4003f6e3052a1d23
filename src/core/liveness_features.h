// Liveness (human vs. mechanical speaker) feature extraction (§III-A).
//
// The discriminative physics (Fig. 3): live speech has genuine high-band
// (> 4 kHz) energy with an exponential decay around 4 kHz, while replayed
// audio has a weaker, flatter high band made of distortion products. We
// summarize one preprocessed channel — downsampled to 16 kHz and
// normalized to zero mean / unit variance, exactly the wav2vec2 input
// convention the paper uses — into log band energies plus spectral shape
// measures that carry that signature. The preprocessing trim is decided on
// the whole capture, so every caller (training, enrollment, serving) passes
// the multichannel capture and gets the features serving scores.
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

  /// Extracts features from a raw capture through the incremental operator
  /// (default PreprocessConfig): every channel is band-passed and feeds the
  /// trim envelope, and band-passed channel 0, decimated to the liveness
  /// rate over the trimmed span, gives the features — what score_capture()
  /// and finalize_segment() compute. The sample rate must be a whole
  /// multiple of config().model_sample_rate (16, 32, 48, 96 kHz, ...);
  /// any other throws std::invalid_argument. `workspace` (optional)
  /// supplies reusable scratch; it never changes the result.
  [[nodiscard]] ml::FeatureVector extract(const audio::MultiBuffer& capture,
                                          ScoringWorkspace* workspace = nullptr) const;

  [[nodiscard]] std::size_t dimension() const noexcept {
    return config_.log_bands + 6;
  }

  [[nodiscard]] const LivenessFeatureConfig& config() const noexcept { return config_; }

 private:
  LivenessFeatureConfig config_;
};

}  // namespace headtalk::core
