#include "dsp/spectral.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "dsp/fft.h"

namespace headtalk::dsp {
namespace {

constexpr double kFs = 48000.0;
constexpr std::size_t kN = 4096;

std::vector<double> tone_magnitude(double freq) {
  std::vector<audio::Sample> x(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * freq * static_cast<double>(i) / kFs);
  }
  return magnitude_spectrum(x, kN);
}

TEST(Spectral, BandMeanMagnitudeLocalizesTone) {
  const auto mag = tone_magnitude(1000.0);
  const double in_band = band_mean_magnitude(mag, kN, kFs, 900.0, 1100.0);
  const double out_band = band_mean_magnitude(mag, kN, kFs, 4000.0, 8000.0);
  EXPECT_GT(in_band, 100.0 * out_band);
}

TEST(Spectral, BandEnergyAdditivity) {
  const auto mag = tone_magnitude(2000.0);
  const double whole = band_energy(mag, kN, kFs, 100.0, 8000.0);
  const double left = band_energy(mag, kN, kFs, 100.0, 3000.0);
  const double right = band_energy(mag, kN, kFs, 3000.0, 8000.0);
  EXPECT_NEAR(whole, left + right, 1e-6 * whole + 1e-12);
}

TEST(Spectral, BadRangeThrows) {
  const auto mag = tone_magnitude(1000.0);
  EXPECT_THROW((void)band_energy(mag, kN, kFs, 2000.0, 1000.0), std::invalid_argument);
  EXPECT_THROW((void)band_energy(mag, kN, kFs, -5.0, 1000.0), std::invalid_argument);
}

TEST(Spectral, BandEdgesAreFloatingPointTolerant) {
  // Band edges are routinely computed (low + width * c) and can land a few
  // ulps off an exact bin frequency. 3000 Hz is exactly bin 256 at this
  // geometry; nudging the edge one ulp either way must not move the bin
  // boundary — with a bare ceil the upper bound gained a whole bin (the
  // original bug) and additivity across a split broke.
  const auto mag = tone_magnitude(2000.0);
  const double above = std::nextafter(3000.0, 1e9);
  const double below = std::nextafter(3000.0, 0.0);
  // Upper edge: [100, 3000 ± ulp) selects exactly the same bins.
  EXPECT_DOUBLE_EQ(band_energy(mag, kN, kFs, 100.0, above),
                   band_energy(mag, kN, kFs, 100.0, 3000.0));
  EXPECT_DOUBLE_EQ(band_energy(mag, kN, kFs, 100.0, below),
                   band_energy(mag, kN, kFs, 100.0, 3000.0));
  // Lower edge: [3000 ± ulp, 8000) keeps bin 256 in the band.
  EXPECT_DOUBLE_EQ(band_energy(mag, kN, kFs, above, 8000.0),
                   band_energy(mag, kN, kFs, 3000.0, 8000.0));
  EXPECT_DOUBLE_EQ(band_energy(mag, kN, kFs, below, 8000.0),
                   band_energy(mag, kN, kFs, 3000.0, 8000.0));
}

TEST(Spectral, BandEnergyAdditivityAtPerturbedSplit) {
  // The half-open split stays additive when the shared edge carries
  // floating-point error: no bin is counted twice or dropped.
  const auto mag = tone_magnitude(2000.0);
  const double whole = band_energy(mag, kN, kFs, 100.0, 8000.0);
  const double edge = std::nextafter(3000.0, 1e9);
  const double left = band_energy(mag, kN, kFs, 100.0, edge);
  const double right = band_energy(mag, kN, kFs, edge, 8000.0);
  EXPECT_NEAR(whole, left + right, 1e-9 * whole);
}

TEST(Spectral, SuperNyquistHighClampsToWholeSpectrum) {
  // Asking past Nyquist means "the rest of the spectrum", Nyquist bin
  // included; [*, 24000) itself is half-open and excludes the Nyquist bin.
  const auto mag = tone_magnitude(2000.0);
  const double everything = band_energy(mag, kN, kFs, 100.0, 1.0e9);
  EXPECT_DOUBLE_EQ(everything, band_energy(mag, kN, kFs, 100.0, 48000.0));
  const double nyquist_bin = mag.back() * mag.back();
  EXPECT_DOUBLE_EQ(everything,
                   band_energy(mag, kN, kFs, 100.0, 24000.0) + nyquist_bin);
}

TEST(Spectral, LowAtOrAboveNyquistThrows) {
  const auto mag = tone_magnitude(2000.0);
  EXPECT_THROW((void)band_energy(mag, kN, kFs, 24000.0, 25000.0),
               std::invalid_argument);
  EXPECT_THROW((void)band_mean_magnitude(mag, kN, kFs, 30000.0, 40000.0),
               std::invalid_argument);
}

TEST(Spectral, HlbrDistinguishesSpectralBalance) {
  // Low tone only -> HLBR near 0; with a strong high-band tone HLBR rises.
  std::vector<audio::Sample> low(kN), both(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double t = static_cast<double>(i) / kFs;
    low[i] = std::sin(2.0 * std::numbers::pi * 250.0 * t);
    both[i] = low[i] + 2.0 * std::sin(2.0 * std::numbers::pi * 2500.0 * t);
  }
  const auto mag_low = magnitude_spectrum(low, kN);
  const auto mag_both = magnitude_spectrum(both, kN);
  const double hlbr_low =
      high_low_band_ratio(mag_low, kN, kFs, 100.0, 400.0, 500.0, 4000.0);
  const double hlbr_both =
      high_low_band_ratio(mag_both, kN, kFs, 100.0, 400.0, 500.0, 4000.0);
  EXPECT_LT(hlbr_low, 0.05);
  EXPECT_GT(hlbr_both, 10.0 * hlbr_low);
}

TEST(Spectral, HlbrSilentLowBandIsZero) {
  const auto mag = tone_magnitude(6000.0);  // nothing in the low band
  EXPECT_DOUBLE_EQ(
      high_low_band_ratio(mag, kN, kFs, 100.0, 101.0, 500.0, 4000.0), 0.0);
}

TEST(Spectral, BandedStatisticsLayoutAndChunks) {
  const auto mag = tone_magnitude(250.0);
  const auto stats = banded_statistics(mag, kN, kFs, 100.0, 400.0, 20);
  ASSERT_EQ(stats.size(), 60u);  // 20 chunks x {mean, rms, std}
  // RMS >= mean >= 0 within every chunk.
  for (std::size_t c = 0; c < 20; ++c) {
    EXPECT_GE(stats[3 * c + 1], stats[3 * c] - 1e-12);
    EXPECT_GE(stats[3 * c], 0.0);
  }
  EXPECT_THROW((void)banded_statistics(mag, kN, kFs, 100.0, 400.0, 0),
               std::invalid_argument);
}

TEST(Spectral, LogBandEnergiesPeakAtToneBand) {
  const auto mag = tone_magnitude(3000.0);
  const auto bands = log_band_energies(mag, kN, kFs, 100.0, 7900.0, 26);
  ASSERT_EQ(bands.size(), 26u);
  // The band containing 3 kHz must be the maximum.
  const double width = (7900.0 - 100.0) / 26.0;
  const auto tone_band = static_cast<std::size_t>((3000.0 - 100.0) / width);
  for (std::size_t b = 0; b < bands.size(); ++b) {
    if (b != tone_band) {
      EXPECT_LE(bands[b], bands[tone_band]);
    }
  }
}

TEST(Spectral, CentroidTracksToneFrequency) {
  // Bin-aligned tones (k*fs/N) avoid leakage skewing the centroid.
  EXPECT_NEAR(spectral_centroid(tone_magnitude(1500.0), kN, kFs), 1500.0, 50.0);
  EXPECT_NEAR(spectral_centroid(tone_magnitude(6000.0), kN, kFs), 6000.0, 100.0);
}

TEST(Spectral, FlatnessNoiseVsTone) {
  std::mt19937 rng(1);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<audio::Sample> noise(kN);
  for (auto& v : noise) v = u(rng);
  const auto mag_noise = magnitude_spectrum(noise, kN);
  const double flat_noise = spectral_flatness(mag_noise, kN, kFs, 500.0, 8000.0);
  const double flat_tone = spectral_flatness(tone_magnitude(1000.0), kN, kFs, 500.0, 8000.0);
  EXPECT_GT(flat_noise, 0.4);
  EXPECT_LT(flat_tone, 0.05);
}

TEST(Spectral, RolloffBoundsToneFrequency) {
  const double r = spectral_rolloff(tone_magnitude(2000.0), kN, kFs, 0.95);
  EXPECT_NEAR(r, 2000.0, 100.0);
}

TEST(Spectral, SlopeOrdersByTilt) {
  // Broadband signals with opposite tilts: a low-passed noise burst must
  // slope down more steeply than the raw (flat) noise.
  std::mt19937 rng(2);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<audio::Sample> flat(kN), tilted(kN);
  for (auto& v : flat) v = u(rng);
  // First-difference pre-emphasis (rising) vs. running average (falling).
  tilted[0] = flat[0];
  for (std::size_t i = 1; i < kN; ++i) tilted[i] = 0.5 * (flat[i] + flat[i - 1]);
  const auto mag_flat = magnitude_spectrum(flat, kN);
  const auto mag_tilt = magnitude_spectrum(tilted, kN);
  const double slope_flat = spectral_slope_db_per_khz(mag_flat, kN, kFs, 500.0, 12000.0);
  const double slope_tilt = spectral_slope_db_per_khz(mag_tilt, kN, kFs, 500.0, 12000.0);
  EXPECT_LT(slope_tilt, slope_flat);
  EXPECT_NEAR(slope_flat, 0.0, 0.5);  // white noise is flat
  EXPECT_LT(slope_tilt, -0.1);        // smoothing kills highs
}

}  // namespace
}  // namespace headtalk::dsp
