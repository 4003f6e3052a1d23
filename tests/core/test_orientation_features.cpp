#include "core/orientation_features.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <span>
#include <vector>

#include "core/incremental_extractor.h"
#include "dsp/fft.h"
#include "dsp/fractional_delay.h"
#include "dsp/spectral.h"

namespace headtalk::core {
namespace {

audio::MultiBuffer random_capture(std::size_t channels, std::size_t frames,
                                  unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-0.5, 0.5);
  audio::MultiBuffer m(channels, frames, 48000.0);
  for (std::size_t c = 0; c < channels; ++c) {
    for (auto& v : m.channel(c).data()) v = u(rng);
  }
  return m;
}

TEST(OrientationFeatures, PaperLagWindows) {
  OrientationFeatureConfig cfg;
  cfg.max_mic_distance_m = 0.09;  // D2
  OrientationFeatureExtractor e(cfg);
  EXPECT_EQ(e.effective_max_lag(48000.0), 13);
  cfg.max_mic_distance_m = 0.085;  // D1
  EXPECT_EQ(OrientationFeatureExtractor(cfg).effective_max_lag(48000.0), 12);
  cfg.max_mic_distance_m = 0.065;  // D3
  EXPECT_EQ(OrientationFeatureExtractor(cfg).effective_max_lag(48000.0), 10);
}

TEST(OrientationFeatures, ExplicitMaxLagOverrides) {
  OrientationFeatureConfig cfg;
  cfg.max_lag = 7;
  EXPECT_EQ(OrientationFeatureExtractor(cfg).effective_max_lag(48000.0), 7);
}

TEST(OrientationFeatures, DimensionMatchesExtraction) {
  OrientationFeatureExtractor e;
  for (std::size_t channels : {2u, 3u, 4u, 5u, 6u}) {
    const auto capture = random_capture(channels, 4096, 1);
    const auto f = e.extract(capture);
    EXPECT_EQ(f.size(), e.dimension(channels)) << channels << " channels";
  }
}

TEST(OrientationFeatures, GccBlockMatchesPaperCount) {
  // §III-B3: for D2's 4 channels and a 13-sample window the GCC feature
  // block is 6 x 27 + 6 = 168 values.
  OrientationFeatureConfig cfg;
  cfg.max_mic_distance_m = 0.09;
  OrientationFeatureExtractor e(cfg);
  const std::size_t gcc_block = 6 * 27 + 6;
  // dimension = srp(3 + 5) + gcc_block + pair stats (6*5) + hlbr(1) + 60.
  EXPECT_EQ(e.dimension(4), 8 + gcc_block + 30 + 1 + 60);
}

TEST(OrientationFeatures, RequiresTwoChannels) {
  OrientationFeatureExtractor e;
  const auto mono = random_capture(1, 1024, 2);
  EXPECT_THROW((void)e.extract(mono), std::invalid_argument);
}

TEST(OrientationFeatures, DeterministicForSameCapture) {
  OrientationFeatureExtractor e;
  const auto capture = random_capture(4, 4096, 3);
  const auto a = e.extract(capture);
  const auto b = e.extract(capture);
  EXPECT_EQ(a, b);
}

TEST(OrientationFeatures, TdoaFeatureReflectsChannelDelays) {
  // Channel 1 delayed 6 samples w.r.t. channel 0: the first TDoA feature
  // (pair 0-1 peak lag) must be -6 (signal reaches ch0 first).
  const auto base = random_capture(1, 8192, 4).channel(0);
  std::vector<audio::Buffer> channels{base,
                                      audio::Buffer(dsp::fractional_delay(base.samples(), 6.0), 48000.0)};
  const audio::MultiBuffer capture(std::move(channels));
  OrientationFeatureConfig cfg;
  cfg.max_lag = 10;
  OrientationFeatureExtractor e(cfg);
  const auto f = e.extract(capture);
  // Layout: 3 peaks + 5 SRP stats + 1 pair x 21 GCC values, then 1 TDoA.
  const std::size_t tdoa_index = 3 + 5 + 21;
  EXPECT_DOUBLE_EQ(f[tdoa_index], -6.0);
}

TEST(OrientationFeatures, FeatureValuesAreFinite) {
  OrientationFeatureExtractor e;
  const auto capture = random_capture(4, 4096, 5);
  for (double v : e.extract(capture)) EXPECT_TRUE(std::isfinite(v));
}

TEST(OrientationFeatures, SilentCaptureDoesNotBlowUp) {
  OrientationFeatureExtractor e;
  audio::MultiBuffer silent(4, 4096, 48000.0);
  const auto f = e.extract(silent);
  for (double v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST(OrientationFeatures, DirectivityDecimationKeepsTheFullRateWindow) {
  // The directivity transform runs at rate / D (D = 4, 2, 1 at 48, 44.1 and
  // 16 kHz for the 4 kHz top band) on a window D times shorter, so it spans
  // the same ~85 ms and the same bins as the full-rate transform it
  // replaced (4096, 4096 and 2048 points). Features stay finite at each rate.
  struct Case {
    double rate;
    std::size_t step;
    std::size_t full_rate_fft;
  };
  for (const Case c :
       {Case{48000.0, 4, 4096}, Case{44100.0, 2, 4096}, Case{16000.0, 1, 2048}}) {
    IncrementalExtractorConfig config;
    config.enable_liveness = false;
    IncrementalExtractor op;
    op.begin(config, 4, c.rate);
    EXPECT_EQ(op.directivity_decimation(), c.step) << c.rate;
    EXPECT_EQ(op.directivity_fft_size() * op.directivity_decimation(), c.full_rate_fft)
        << c.rate;
    const auto noise = random_capture(4, 6000, 9);
    audio::MultiBuffer capture(4, 6000, c.rate);
    for (std::size_t ch = 0; ch < 4; ++ch) {
      capture.channel(ch).data() = noise.channel(ch).data();
    }
    op.push(capture);
    for (double v : op.finalize_orientation()) EXPECT_TRUE(std::isfinite(v)) << c.rate;
  }
}

TEST(OrientationFeatures, DecimatedDirectivityMatchesTheFullRateSpectrum) {
  // The operator's 48 kHz directivity chain (its decimator, D = 4, then
  // 1024 points at 12 kHz) against the 4096-point transform of the same
  // 85 ms window at 48 kHz. Tones at 200 Hz, 1 kHz and 3.5 kHz keep their
  // band-normalized levels within 0.2 dB; a 9 kHz tone, which decimation
  // folds onto 3 kHz, lands at least 50 dB down.
  constexpr double kRate = 48000.0;
  constexpr std::size_t kFft = 4096, kBins = 344;
  const OrientationFeatureConfig bands;
  const double top_hz = std::max(bands.high_band_hi, bands.low_band_hi);
  const auto tones = [](std::initializer_list<double> hz) {
    std::vector<double> x(3 * kFft);
    for (std::size_t n = 0; n < x.size(); ++n) {
      for (const double f : hz) {
        x[n] += std::sin(2.0 * std::numbers::pi * f * static_cast<double>(n) / kRate);
      }
    }
    return x;
  };
  // Magnitudes of bins [0, bins) of the last `fft` samples.
  const auto spectrum = [](const std::vector<double>& x, std::size_t fft, std::size_t bins) {
    std::vector<double> mag(fft / 2 + 1, 0.0);
    dsp::LaneScratch scratch;
    dsp::rfft_magnitudes_head(std::span<const double>(x).last(fft), {}, fft, bins, mag.data(),
                              scratch);
    return mag;
  };
  const auto decimated = [&](const std::vector<double>& x) {
    auto decimator = directivity_decimator(kRate, 1, top_hz);
    EXPECT_EQ(decimator.step(), 4u);
    std::copy(x.begin(), x.end(), decimator.append(x.size()));
    std::vector<double> y(decimator.ready());
    decimator.emit(y.data(), y.size());
    return spectrum(y, kFft / 4, kBins);
  };
  const auto normalized = [&](std::vector<double> mag, std::size_t fft, double rate) {
    const double reference =
        dsp::band_mean_magnitude(mag, fft, rate, bands.low_band_lo, bands.high_band_hi);
    for (auto& m : mag) m /= reference;
    return mag;
  };

  const auto x = tones({200.0, 1000.0, 3500.0, 9000.0});
  const auto want = normalized(spectrum(x, kFft, kBins), kFft, kRate);
  const auto got = normalized(decimated(x), kFft / 4, kRate / 4);
  const double bin_hz = kRate / kFft;
  for (const double hz : {200.0, 1000.0, 3500.0}) {
    const auto k = static_cast<std::size_t>(std::lround(hz / bin_hz));
    EXPECT_NEAR(20.0 * std::log10(got[k] / want[k]), 0.0, 0.2) << hz << " Hz";
  }

  // The alias alone, as amplitudes 2|X|/N on both sides: the tone's at
  // 9 kHz in the full-rate spectrum, the loudest decimated bin below 4 kHz.
  const auto alias = tones({9000.0});
  const auto full = spectrum(alias, kFft, kFft / 2 + 1);
  const double tone_amplitude = 2.0 * full[static_cast<std::size_t>(9000.0 / bin_hz)] / kFft;
  const auto folded = decimated(alias);
  const double alias_amplitude =
      2.0 * *std::max_element(folded.begin(), folded.end()) / (kFft / 4);
  EXPECT_LT(20.0 * std::log10(alias_amplitude / tone_amplitude), -50.0);
}

}  // namespace
}  // namespace headtalk::core
