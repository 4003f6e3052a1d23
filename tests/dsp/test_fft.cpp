#include "dsp/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

namespace headtalk::dsp {
namespace {

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

/// The full DFT of a real signal zero-padded to n points, by definition.
std::vector<Complex> naive_dft(const std::vector<audio::Sample>& x, std::size_t n) {
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex sum{};
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double phase = -2.0 * std::numbers::pi * static_cast<double>((k * i) % n) /
                           static_cast<double>(n);
      sum += x[i] * Complex(std::cos(phase), std::sin(phase));
    }
    out[k] = sum;
  }
  return out;
}

std::vector<audio::Sample> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<audio::Sample> x(n);
  for (auto& v : x) v = u(rng);
  return x;
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<audio::Sample> x(12);
  EXPECT_THROW((void)rfft_half(x, 12), std::invalid_argument);
  EXPECT_THROW((void)magnitude_spectrum(x, 12), std::invalid_argument);
  HalfSpectrum malformed;
  malformed.fft_size = 12;
  malformed.bins.resize(7);
  EXPECT_THROW((void)irfft_half(malformed), std::invalid_argument);
}

TEST(Fft, DeltaHasFlatSpectrum) {
  std::vector<audio::Sample> x(16, 0.0);
  x[0] = 1.0;
  const auto spec = rfft_half(x, 16);
  ASSERT_EQ(spec.bins.size(), 9u);
  for (const auto& v : spec.bins) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SinglePureToneBin) {
  // A k=3 cosine concentrates in bin 3 (its mirror, bin n-3, is outside
  // the one-sided spectrum): |X[3]| = n/2.
  const std::size_t n = 64;
  std::vector<audio::Sample> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(2.0 * std::numbers::pi * 3.0 * static_cast<double>(i) /
                    static_cast<double>(n));
  }
  const auto spec = rfft_half(x, n);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    EXPECT_NEAR(std::abs(spec.bins[k]), k == 3 ? static_cast<double>(n) / 2.0 : 0.0, 1e-9)
        << "bin " << k;
  }
}

TEST(Fft, ForwardInverseRoundTrip) {
  const auto x = random_signal(256, 7);
  const auto back = irfft_half(rfft_half(x, 256));
  ASSERT_EQ(back.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-12);
}

TEST(Fft, ParsevalEnergyConservation) {
  // sum |x|^2 = (1/n) sum over all n bins of |X|^2; bins 1 .. n/2-1 stand
  // for their mirrors too.
  const std::size_t n = 128;
  const auto x = random_signal(n, 11);
  double time_energy = 0.0;
  for (const double v : x) time_energy += v * v;
  const auto spec = rfft_half(x, n);
  double freq_energy = std::norm(spec.bins[0]) + std::norm(spec.bins[n / 2]);
  for (std::size_t k = 1; k < n / 2; ++k) freq_energy += 2.0 * std::norm(spec.bins[k]);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-9);
}

TEST(Rfft, MatchesConjugateSymmetry) {
  // For real x, X[n-k] = conj(X[k]): the time-reversed signal x[-i mod n]
  // has the conjugate spectrum, and the edge bins 0 and n/2 are real.
  const std::size_t n = 128;
  auto x = random_signal(100, 3);
  x.resize(n, 0.0);
  std::vector<audio::Sample> reversed(n);
  for (std::size_t i = 0; i < n; ++i) reversed[i] = x[(n - i) % n];
  const auto spec = rfft_half(x, n);
  const auto mirror = rfft_half(reversed, n);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    EXPECT_NEAR(mirror.bins[k].real(), spec.bins[k].real(), 1e-10) << "bin " << k;
    EXPECT_NEAR(mirror.bins[k].imag(), -spec.bins[k].imag(), 1e-10) << "bin " << k;
  }
  EXPECT_NEAR(spec.bins[0].imag(), 0.0, 1e-12);
  EXPECT_NEAR(spec.bins[n / 2].imag(), 0.0, 1e-12);
}

TEST(Rfft, RejectsTooSmallFftSize) {
  std::vector<audio::Sample> x(100);
  EXPECT_THROW((void)rfft_half(x, 64), std::invalid_argument);
  EXPECT_THROW((void)rfft_half(x, 100), std::invalid_argument);  // not pow2
  EXPECT_THROW((void)rfft_half(x, 1), std::invalid_argument);
}

TEST(RfftHalf, MatchesFullRfft) {
  // The one-sided spectrum is bins 0 .. n/2 of the full DFT of the
  // zero-padded signal, at every size down to 2 points.
  for (const std::size_t n : {2u, 4u, 8u, 512u}) {
    const auto x = random_signal(n == 512 ? 300 : n - 1, 5 + static_cast<unsigned>(n));
    const auto full = naive_dft(x, n);
    const auto half = rfft_half(x, n);
    ASSERT_EQ(half.bins.size(), n / 2 + 1);
    for (std::size_t k = 0; k <= n / 2; ++k) {
      EXPECT_NEAR(std::abs(full[k] - half.bins[k]), 0.0, 1e-10) << "n " << n << " bin " << k;
    }
  }
}

TEST(RfftHalf, InverseRoundTrip) {
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<audio::Sample> x(777);
  for (auto& v : x) v = u(rng);
  const auto spec = rfft_half(x, 1024);
  const auto back = irfft_half(spec, x.size());
  ASSERT_EQ(back.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-10);
}

TEST(HalfSpectrum, MultiplyRejectsSizeMismatch) {
  std::vector<audio::Sample> x(10);
  auto a = rfft_half(x, 16);
  auto b = rfft_half(x, 32);
  EXPECT_THROW(a.multiply(b), std::invalid_argument);
}

TEST(Fft, MagnitudeSpectrumOfRealTone) {
  const std::size_t n = 1024;
  std::vector<audio::Sample> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * 8.0 * static_cast<double>(i) / static_cast<double>(n));
  }
  const auto mag = magnitude_spectrum(x, n);
  ASSERT_EQ(mag.size(), n / 2 + 1);
  // Bin 8 carries (almost) all the energy: N/2 for a real sine.
  EXPECT_NEAR(mag[8], static_cast<double>(n) / 2.0, 1e-6);
  EXPECT_LT(mag[100], 1e-6);
}

TEST(Fft, BinFrequency) {
  EXPECT_DOUBLE_EQ(bin_frequency(0, 1024, 48000.0), 0.0);
  EXPECT_DOUBLE_EQ(bin_frequency(512, 1024, 48000.0), 24000.0);
  EXPECT_NEAR(bin_frequency(10, 2048, 48000.0), 234.375, 1e-9);
}

}  // namespace
}  // namespace headtalk::dsp
