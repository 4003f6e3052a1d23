// Orientation feature extraction (§III-B3).
//
// From a raw multichannel capture (band-passed and trimmed by the
// incremental operator):
//   Speech reverberation features —
//     * weighted SRP-PHAT over the array's physical lag window: the top-3
//       peak values (Fig. 6b shows 3-4 reverberation peaks) and the five
//       summary statistics of the sequence;
//     * per-microphone-pair GCC-PHAT sequences (all lags) + the TDoA of
//       each pair (for a 4-channel array and a 13-sample window:
//       6 x 27 + 6 = 168 values, matching the paper's count) and summary
//       statistics of each pair's sequence.
//   Speech directivity features —
//     * high/low band ratio HLBR (low band 100–400 Hz, high 500–4000 Hz);
//     * the low band split into 20 chunks with {mean, RMS, std} each.
#pragma once

#include <vector>

#include "audio/sample_buffer.h"
#include "ml/dataset.h"

namespace headtalk::core {

class ScoringWorkspace;

struct OrientationFeatureConfig {
  /// Lag window half-width in samples; 0 = derive from the mic spacing as
  /// ceil(d * fs / c) (§III-B3: ±12/13/10 samples for D1/D2/D3 at 48 kHz).
  int max_lag = 0;
  double max_mic_distance_m = 0.09;  ///< used when max_lag == 0
  double speed_of_sound = 340.0;     ///< the paper's value
  /// Directivity bands.
  double low_band_lo = 100.0, low_band_hi = 400.0;
  double high_band_lo = 500.0, high_band_hi = 4000.0;
  std::size_t low_band_chunks = 20;
  /// Number of top SRP peaks kept.
  std::size_t srp_peaks = 3;
  /// Mean cross-spectral coherence below which a microphone pair is pruned
  /// from the GCC/SRP block (its sequence zeroed, its TDoA reported as 0).
  /// A dead or disconnected capsule decorrelates against every live
  /// channel (block coherence ~1/64 ≈ 0.016) while live reverberant pairs
  /// measure 0.2-0.4 on rendered captures, so 0.05 rejects only pairs that
  /// carry no directional information anyway. Set 0 to disable the
  /// estimate entirely.
  double coherence_floor = 0.05;
};

class OrientationFeatureExtractor {
 public:
  explicit OrientationFeatureExtractor(OrientationFeatureConfig config = {})
      : config_(config) {}

  /// Extracts the feature vector from a raw capture. The capture is
  /// band-passed and silence-trimmed (default PreprocessConfig) by the
  /// incremental operator this call delegates to, so the result is
  /// identical to streaming the same capture frame by frame. The feature
  /// length depends only on the channel count and lag window, so captures
  /// from the same device configuration are mutually consistent.
  ///
  /// `workspace` (optional) supplies reusable scratch buffers; passing one
  /// makes repeated extractions allocation-free after warm-up and never
  /// changes the result — features are bit-identical with or without it.
  [[nodiscard]] ml::FeatureVector extract(const audio::MultiBuffer& capture,
                                          ScoringWorkspace* workspace = nullptr) const;

  /// Feature dimension for a given channel count at the default capture
  /// rate.
  [[nodiscard]] std::size_t dimension(std::size_t channels) const;
  /// Feature dimension for a given channel count and sample rate (the lag
  /// window, and so the GCC sequence length, scales with the rate unless
  /// config().max_lag fixes it).
  [[nodiscard]] std::size_t dimension(std::size_t channels, double sample_rate) const;

  [[nodiscard]] int effective_max_lag(double sample_rate) const;

  [[nodiscard]] const OrientationFeatureConfig& config() const noexcept { return config_; }

 private:
  OrientationFeatureConfig config_;
};

}  // namespace headtalk::core
