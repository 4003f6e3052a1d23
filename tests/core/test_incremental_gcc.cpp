// The operator's correlation results: per-pair GCC-PHAT windows, their
// coherence pruning, and the weighted SRP (Eq. 6) summed from them — the
// views finalize_orientation() exposes and builds its feature vector from.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/incremental_extractor.h"
#include "dsp/biquad.h"
#include "dsp/correlation.h"
#include "dsp/fft.h"
#include "dsp/fir.h"
#include "dsp/fractional_delay.h"
#include "dsp/spectral.h"

namespace headtalk::core {
namespace {

constexpr double kFs = 48000.0;

audio::Buffer random_buffer(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  audio::Buffer b(n, kFs);
  for (auto& v : b.data()) v = u(rng);
  return b;
}

audio::Buffer delayed(const audio::Buffer& x, double samples) {
  return audio::Buffer(dsp::fractional_delay(x.samples(), samples), kFs);
}

IncrementalExtractorConfig gcc_config(int max_lag, double coherence_floor) {
  IncrementalExtractorConfig config;
  config.orientation.max_lag = max_lag;
  config.orientation.coherence_floor = coherence_floor;
  config.enable_liveness = false;
  return config;
}

/// Runs the whole capture through `op` and returns the feature vector.
ml::FeatureVector finalize(IncrementalExtractor& op, const audio::MultiBuffer& capture,
                           const IncrementalExtractorConfig& config) {
  op.begin(config, capture.channel_count(), capture.sample_rate());
  op.push(capture);
  return op.finalize_orientation();
}

int srp_peak_lag(const IncrementalExtractor& op) {
  const auto srp = op.srp();
  return static_cast<int>(std::distance(srp.begin(), std::max_element(srp.begin(), srp.end()))) -
         op.max_lag();
}

TEST(PairGcc, EnumeratesAllPairs) {
  // Channel k delayed by k samples: pair (i, j) peaks at i - j, so the TDoA
  // sequence pins the pair order (0,1), (0,2), (0,3), (1,2), (1,3), (2,3).
  const auto base = random_buffer(4800, 1);
  std::vector<audio::Buffer> channels;
  for (int k = 0; k < 4; ++k) channels.push_back(delayed(base, k));
  IncrementalExtractor op;
  (void)finalize(op, audio::MultiBuffer(std::move(channels)), gcc_config(10, 0.05));
  ASSERT_EQ(op.pair_count(), 6u);
  const int expected[] = {-1, -2, -3, -1, -2, -1};
  for (std::size_t p = 0; p < 6; ++p) {
    EXPECT_EQ(op.pair_gcc(p).size(), 21u);
    EXPECT_FALSE(op.pair_pruned(p)) << "pair " << p;
    EXPECT_EQ(op.pair_tdoa(p), expected[p]) << "pair " << p;
  }
  EXPECT_EQ(op.srp().size(), 21u);
  EXPECT_THROW((void)op.pair_gcc(6), std::out_of_range);
}

TEST(PairGcc, ViewsAreClearedByBegin) {
  IncrementalExtractor op;
  const audio::MultiBuffer capture(
      std::vector<audio::Buffer>{random_buffer(2048, 2), random_buffer(2048, 3)});
  (void)finalize(op, capture, gcc_config(6, 0.0));
  op.begin(gcc_config(6, 0.0), 2, kFs);
  EXPECT_TRUE(op.srp().empty());
  EXPECT_THROW((void)op.pair_gcc(0), std::out_of_range);
}

TEST(SrpPhat, SumsPairGccs) {
  // Three identical channels: every pair window peaks at lag 0, and the SRP
  // is the element-wise sum of the three windows.
  const auto base = random_buffer(2048, 1);
  IncrementalExtractor op;
  (void)finalize(op, audio::MultiBuffer(std::vector<audio::Buffer>{base, base, base}),
                 gcc_config(6, 0.05));
  ASSERT_EQ(op.pair_count(), 3u);
  EXPECT_EQ(srp_peak_lag(op), 0);
  for (std::size_t k = 0; k < op.srp().size(); ++k) {
    EXPECT_NEAR(op.srp()[k], op.pair_gcc(0)[k] + op.pair_gcc(1)[k] + op.pair_gcc(2)[k],
                1e-9);
  }
}

TEST(SrpPhat, PeakAtCommonDelayStructure) {
  // Channel k delayed by k samples: pairwise TDoAs are -1 (x2) and -2 (x1),
  // so the SRP mass concentrates at small negative lags rather than lag 0.
  const auto base = random_buffer(2048, 2);
  std::vector<audio::Buffer> channels;
  for (int k = 0; k < 3; ++k) channels.push_back(delayed(base, k));
  IncrementalExtractor op;
  (void)finalize(op, audio::MultiBuffer(std::move(channels)), gcc_config(5, 0.05));
  EXPECT_LT(srp_peak_lag(op), 0);
  EXPECT_GE(srp_peak_lag(op), -2);
}

TEST(PairGcc, CoherenceFloorPrunesDecorrelatedPair) {
  // Two coupled channels (one a delayed copy of the other) plus one
  // independent noise channel: both pairs involving the noise channel
  // measure block coherence near 1/64 and are pruned; the coupled pair
  // stays.
  const auto base = random_buffer(4800, 3);
  const audio::MultiBuffer capture(
      std::vector<audio::Buffer>{base, delayed(base, 2.0), random_buffer(4800, 99)});
  const auto config = gcc_config(13, 0.2);
  IncrementalExtractor op;
  const auto features = finalize(op, capture, config);
  ASSERT_EQ(op.pair_count(), 3u);
  EXPECT_FALSE(op.pair_pruned(0));  // (0,1)
  EXPECT_EQ(op.pair_tdoa(0), -2);   // channel 1 lags channel 0

  const std::size_t window = 27;
  const std::size_t tdoa_at = config.orientation.srp_peaks + 5 + 3 * window;
  for (std::size_t p : {std::size_t{1}, std::size_t{2}}) {  // (0,2), (1,2)
    EXPECT_TRUE(op.pair_pruned(p)) << "pair " << p;
    for (double v : op.pair_gcc(p)) EXPECT_DOUBLE_EQ(v, 0.0);
    EXPECT_EQ(op.pair_tdoa(p), 0) << "pair " << p;
    EXPECT_DOUBLE_EQ(features[tdoa_at + p], 0.0) << "pair " << p;
  }
  EXPECT_DOUBLE_EQ(features[tdoa_at], -2.0);
  // Pruned pairs contribute nothing: SRP equals the surviving pair alone.
  ASSERT_EQ(op.srp().size(), window);
  for (std::size_t k = 0; k < window; ++k) {
    EXPECT_DOUBLE_EQ(op.srp()[k], op.pair_gcc(0)[k]);
  }
}

TEST(PairGcc, ZeroFloorDisablesCoherenceEstimate) {
  const audio::MultiBuffer capture(
      std::vector<audio::Buffer>{random_buffer(2048, 4), random_buffer(2048, 98)});
  IncrementalExtractor op;
  (void)finalize(op, capture, gcc_config(13, 0.0));
  ASSERT_EQ(op.pair_count(), 1u);
  EXPECT_FALSE(op.pair_pruned(0));
  const auto window = op.pair_gcc(0);
  EXPECT_TRUE(std::any_of(window.begin(), window.end(), [](double v) { return v != 0.0; }));
}

// ---- float32 transforms against float64 ------------------------------------
// The operator runs its block STFT, pair PHAT and inverse and directivity
// spectrum in float32. The reference below recomputes the same GCC windows,
// TDoAs and directivity features from the same band-passed blocks with the
// float64 one-signal transforms (which the float64 lane transforms equal
// bit for bit), over the operator's own trim span.

struct Float64Orientation {
  std::vector<std::vector<double>> gcc;  ///< mean window per pair
  std::vector<int> tdoa;
  std::vector<double> directivity;  ///< HLBR, then the banded statistics
};

Float64Orientation float64_orientation(const audio::MultiBuffer& capture,
                                       const IncrementalExtractorConfig& config,
                                       const IncrementalExtractor& op) {
  const std::size_t channels = capture.channel_count();
  const std::size_t frames = capture.frames();
  const double fs = capture.sample_rate();
  const std::size_t len = op.block_length();
  const int max_lag = op.max_lag();
  const std::size_t window = 2 * static_cast<std::size_t>(max_lag) + 1;
  const std::size_t block_fft = dsp::next_pow2(std::max(len + max_lag + 1, window));
  const auto& pre = config.preprocess;
  dsp::MultichannelBiquadCascade bandpass;
  bandpass.reset(dsp::butterworth_bandpass(pre.filter_order, pre.low_hz,
                                           std::min(pre.high_hz, 0.45 * fs), fs),
                 channels);
  std::vector<audio::Sample> filtered;  // [channel][frames]
  bandpass.process(capture, 0, frames, filtered);
  const auto [b0, b1] = op.active_blocks();
  const std::size_t count = b1 - b0;

  Float64Orientation out;
  out.gcc.assign(op.pair_count(), std::vector<double>(window, 0.0));
  std::vector<dsp::HalfSpectrum> spectra(channels);
  dsp::FftScratch scratch;
  dsp::CorrelationWorkspace workspace;
  dsp::CorrelationSequence sequence;

  const auto& o = config.orientation;
  const double top = std::max(o.high_band_hi, o.low_band_hi);
  dsp::FirDecimator decimator = directivity_decimator(fs, channels, top);
  const std::size_t dir_fft = op.directivity_fft_size();
  const double dir_rate = fs / static_cast<double>(op.directivity_decimation());
  const std::size_t dir_bins = std::min(
      dir_fft / 2 + 1,
      static_cast<std::size_t>(std::ceil(top * static_cast<double>(dir_fft) / dir_rate)) + 2);
  std::vector<audio::Sample> ring(dir_fft, 0.0);
  std::size_t decimated = 0;
  std::vector<double> magnitude(dir_fft / 2 + 1, 0.0), block_magnitude(dir_bins);
  dsp::LaneScratch lane_scratch;

  for (std::size_t b = 0; b < b1; ++b) {
    const std::size_t first = b * len;
    const std::size_t valid = std::min(len, frames - first);
    // Directivity: the mixdown into the decimator, the ring, the spectrum.
    double* mix = decimator.append(valid);
    for (std::size_t i = 0; i < valid; ++i) {
      mix[i] = 0.0;
      for (std::size_t c = 0; c < channels; ++c) mix[i] += filtered[c * frames + first + i];
    }
    for (std::size_t ready = decimator.ready(); ready > 0; --ready) {
      decimator.emit(&ring[decimated % dir_fft], 1);
      ++decimated;
    }
    if (b < b0) continue;
    const std::size_t oldest = decimated > dir_fft ? decimated % dir_fft : 0;
    const std::size_t held = std::min(decimated, dir_fft);
    const std::span<const audio::Sample> all(ring);
    dsp::rfft_magnitudes_head<double>(all.subspan(oldest, held - oldest), all.first(oldest),
                                      dir_fft, dir_bins, block_magnitude.data(), lane_scratch);
    for (std::size_t k = 0; k < dir_bins; ++k) magnitude[k] += block_magnitude[k];
    // GCC-PHAT of every pair over this block.
    for (std::size_t c = 0; c < channels; ++c) {
      dsp::rfft_half_into(std::span<const audio::Sample>(filtered).subspan(c * frames + first,
                                                                           valid),
                          block_fft, spectra[c], scratch);
    }
    std::size_t p = 0;
    for (std::size_t i = 0; i + 1 < channels; ++i) {
      for (std::size_t j = i + 1; j < channels; ++j, ++p) {
        dsp::gcc_phat_from_spectra_into(spectra[i], spectra[j], max_lag, sequence, workspace);
        for (std::size_t k = 0; k < window; ++k) out.gcc[p][k] += sequence.values[k];
      }
    }
  }
  for (auto& values : out.gcc) {
    for (auto& v : values) v /= static_cast<double>(count);
    out.tdoa.push_back(static_cast<int>(std::distance(
                           values.begin(), std::max_element(values.begin(), values.end()))) -
                       max_lag);
  }
  for (std::size_t k = 0; k < dir_bins; ++k) magnitude[k] /= static_cast<double>(count);
  const double reference = dsp::band_mean_magnitude(magnitude, dir_fft, dir_rate,
                                                    o.low_band_lo, o.high_band_hi);
  for (auto& m : magnitude) m /= reference;
  out.directivity.push_back(dsp::high_low_band_ratio(magnitude, dir_fft, dir_rate,
                                                     o.low_band_lo, o.low_band_hi,
                                                     o.high_band_lo, o.high_band_hi));
  const auto banded = dsp::banded_statistics(magnitude, dir_fft, dir_rate, o.low_band_lo,
                                             o.low_band_hi, o.low_band_chunks);
  out.directivity.insert(out.directivity.end(), banded.begin(), banded.end());
  return out;
}

/// A 4-channel 48 kHz capture: a band-limited talker with per-channel
/// delays of a few samples and a weaker reflection, silence around it,
/// and a little independent noise on each channel.
audio::MultiBuffer drift_capture(unsigned seed) {
  const std::size_t frames = 38400;
  std::mt19937 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> source(frames + 64, 0.0);
  double lp = 0.0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const double t = static_cast<double>(i) / kFs;
    const double envelope = (t > 0.15 && t < 0.65) ? std::sin(3.14159 * (t - 0.15) / 0.5) : 0.0;
    lp = 0.7 * lp + 0.3 * g(rng);  // speech-like low-pass tilt
    source[i] = 0.2 * envelope * lp;
  }
  const double delays[] = {0.0, 2.4, 5.1, 7.7};
  std::vector<audio::Buffer> channels;
  for (std::size_t c = 0; c < 4; ++c) {
    auto direct = dsp::fractional_delay(source, 16.0 + delays[c]);
    const auto echo = dsp::fractional_delay(source, 40.0 + 1.5 * delays[c]);
    direct.resize(frames);
    for (std::size_t i = 0; i < frames; ++i) direct[i] += 0.3 * echo[i] + 1e-4 * g(rng);
    channels.emplace_back(std::move(direct), kFs);
  }
  return audio::MultiBuffer(std::move(channels));
}

TEST(FloatTransforms, GccWindowsAndTdoasStayNearFloat64) {
  // Each mean GCC window entry within 2e-6 of the float64 one (windows are
  // PHAT-normalized, their peaks here ~0.63; measured drift <= 1.5e-7), and
  // every pair's TDoA unchanged.
  for (const unsigned seed : {1u, 2u}) {
    const auto capture = drift_capture(seed);
    IncrementalExtractorConfig config;
    config.enable_liveness = false;
    IncrementalExtractor op;
    (void)finalize(op, capture, config);
    ASSERT_FALSE(op.pair_pruned(0));
    const auto want = float64_orientation(capture, config, op);
    for (std::size_t p = 0; p < op.pair_count(); ++p) {
      const auto got = op.pair_gcc(p);
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_NEAR(got[k], want.gcc[p][k], 2e-6) << "seed " << seed << " pair " << p;
      }
      EXPECT_EQ(op.pair_tdoa(p), want.tdoa[p]) << "seed " << seed << " pair " << p;
    }
  }
}

TEST(FloatTransforms, DirectivityFeaturesStayNearFloat64) {
  // HLBR and the banded low-band statistics within 2e-6 relative of the
  // float64 ones (measured drift <= 1.3e-7).
  for (const unsigned seed : {1u, 2u}) {
    const auto capture = drift_capture(seed);
    IncrementalExtractorConfig config;
    config.enable_liveness = false;
    IncrementalExtractor op;
    const auto features = finalize(op, capture, config);
    const auto want = float64_orientation(capture, config, op);
    ASSERT_GE(features.size(), want.directivity.size());
    const std::size_t base = features.size() - want.directivity.size();
    for (std::size_t i = 0; i < want.directivity.size(); ++i) {
      EXPECT_NEAR(features[base + i], want.directivity[i],
                  2e-6 * std::max(1.0, std::abs(want.directivity[i])))
          << "seed " << seed << " directivity feature " << i;
    }
  }
}

}  // namespace
}  // namespace headtalk::core
