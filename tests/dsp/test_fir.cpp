// The FIR decimator behind the operator's directivity path: the
// Kaiser-windowed-sinc design, the stateful FirDecimator against a direct
// convolution at any input split, and the dispatched fir_decimate kernel
// at every SIMD level (the SimdFirDecimate suite runs in the
// `simd-equivalence` label with the rest of Simd*).
#include "dsp/fir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <random>
#include <stdexcept>
#include <vector>

#include "dsp/simd/dispatch.h"

namespace headtalk::dsp {
namespace {

std::vector<double> random_values(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> x(n);
  for (auto& v : x) v = u(rng);
  return x;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double response_db(const std::vector<double>& taps, double hz, double rate) {
  std::complex<double> h{};
  for (std::size_t n = 0; n < taps.size(); ++n) {
    const double phase = -2.0 * std::numbers::pi * hz * static_cast<double>(n) / rate;
    h += taps[n] * std::polar(1.0, phase);
  }
  return 20.0 * std::log10(std::abs(h));
}

/// y[m] = Σ_t h[t] x[m·step + t − (T − 1)], x = 0 before the start, summed
/// in tap order from zero — the FirDecimator contract written out.
std::vector<double> direct_decimate(const std::vector<double>& taps, std::size_t step,
                                    const std::vector<double>& x) {
  const std::size_t history = taps.size() - 1;
  std::vector<double> y;
  for (std::size_t n = 0; n < x.size(); n += step) {
    double acc = 0.0;
    for (std::size_t t = 0; t < taps.size(); ++t) {
      const std::size_t i = n + t;  // index into history ++ x
      acc += taps[t] * (i < history ? 0.0 : x[i - history]);
    }
    y.push_back(acc);
  }
  return y;
}

class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level) : previous_(simd::set_level(level)) {}
  ~ScopedLevel() { simd::set_level(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  simd::Level previous_;
};

TEST(KaiserLowpass, LinearPhaseGainAndStopBand) {
  // The operator's designs: 12·D + 1 taps, pass band to 4 kHz, stop band
  // from rate/D − 4 kHz, at 48 kHz (D = 4) and 44.1 kHz (D = 2).
  struct Case {
    double rate;
    std::size_t step;
  };
  for (const Case c : {Case{48000.0, 4}, Case{44100.0, 2}}) {
    const double stop = c.rate / static_cast<double>(c.step) - 4000.0;
    const auto taps = kaiser_lowpass(12 * c.step + 1, 4000.0, stop, c.rate, 0.25);
    ASSERT_EQ(taps.size() % 2, 1u);
    double sum = 0.0;
    for (std::size_t n = 0; n < taps.size(); ++n) {
      EXPECT_EQ(taps[n], taps[taps.size() - 1 - n]) << "tap " << n;
      sum += taps[n];
    }
    EXPECT_NEAR(sum, 0.25, 1e-15);
    for (double hz = 0.0; hz <= 4000.0; hz += 25.0) {
      EXPECT_NEAR(response_db(taps, hz, c.rate) - 20.0 * std::log10(0.25), 0.0, 0.01)
          << c.rate << " Hz rate, " << hz << " Hz";
    }
    for (double hz = stop; hz <= 0.5 * c.rate; hz += 25.0) {
      EXPECT_LT(response_db(taps, hz, c.rate) - 20.0 * std::log10(0.25), -60.0)
          << c.rate << " Hz rate, " << hz << " Hz";
    }
  }
  EXPECT_EQ(kaiser_lowpass(1, 100.0, 200.0, 1000.0, 0.5), std::vector<double>{0.5});
  EXPECT_THROW((void)kaiser_lowpass(48, 4000.0, 8000.0, 48000.0), std::invalid_argument);
  EXPECT_THROW((void)kaiser_lowpass(49, 8000.0, 4000.0, 48000.0), std::invalid_argument);
  EXPECT_THROW((void)kaiser_lowpass(49, 4000.0, 30000.0, 48000.0), std::invalid_argument);
}

TEST(FirDecimator, MatchesDirectConvolutionAtAnySplit) {
  const auto x = random_values(5000, 11);
  struct Case {
    std::size_t taps;
    std::size_t step;
  };
  for (const Case c : {Case{49, 4}, Case{25, 2}, Case{1, 1}, Case{7, 3}}) {
    const auto taps = random_values(c.taps, 20 + static_cast<unsigned>(c.taps));
    const auto want = direct_decimate(taps, c.step, x);
    for (const std::size_t chunk : {1u, 7u, 960u, 5000u}) {
      FirDecimator decimator;
      decimator.reset(taps, c.step);
      std::vector<double> got;
      for (std::size_t first = 0; first < x.size(); first += chunk) {
        const std::size_t take = std::min(chunk, x.size() - first);
        std::copy_n(x.data() + first, take, decimator.append(take));
        // Emit in two pieces, as the operator does at its ring's wrap.
        const std::size_t ready = decimator.ready();
        got.resize(got.size() + ready);
        double* out = got.data() + got.size() - ready;
        decimator.emit(out, ready / 3);
        decimator.emit(out + ready / 3, ready - ready / 3);
        EXPECT_EQ(decimator.ready(), 0u);
      }
      ASSERT_EQ(got.size(), want.size()) << c.taps << " taps, chunk " << chunk;
      for (std::size_t m = 0; m < want.size(); ++m) {
        ASSERT_TRUE(same_bits(got[m], want[m]))
            << c.taps << " taps, step " << c.step << ", chunk " << chunk << ", output " << m;
      }
      // restart() begins a new signal with the same taps.
      decimator.restart();
      std::copy_n(x.data(), 100, decimator.append(100));
      std::vector<double> again(decimator.ready());
      decimator.emit(again.data(), again.size());
      for (std::size_t m = 0; m < again.size(); ++m) {
        ASSERT_TRUE(same_bits(again[m], want[m]));
      }
    }
  }
  FirDecimator decimator;
  EXPECT_THROW(decimator.reset({1.0, 2.0}, 3), std::invalid_argument);
  EXPECT_THROW(decimator.reset({1.0}, 0), std::invalid_argument);
  decimator.reset({0.5, 0.5, 0.5}, 2);
  std::fill_n(decimator.append(3), 3, 1.0);
  double out[4];
  EXPECT_THROW(decimator.emit(out, decimator.ready() + 1), std::logic_error);
}

TEST(SimdFirDecimate, KernelExactAcrossLevels) {
  // Every level, every ragged output count: the kernel's sum is the tap
  // order written out, bit for bit.
  const int max_level = static_cast<int>(simd::max_supported_level());
  for (const std::size_t step : {1u, 2u, 4u}) {
    const auto taps = random_values(12 * step + 1, 40 + static_cast<unsigned>(step));
    const std::size_t stride = 80;
    const auto rows = random_values(step * stride, 50 + static_cast<unsigned>(step));
    for (std::size_t count = 0; count <= 37; ++count) {
      std::vector<double> want(count);
      for (std::size_t m = 0; m < count; ++m) {
        double acc = 0.0;
        for (std::size_t t = 0; t < taps.size(); ++t) {
          const std::size_t n = m * step + t;
          acc += taps[t] * rows[(n % step) * stride + n / step];
        }
        want[m] = acc;
      }
      for (int level = 0; level <= max_level; ++level) {
        ScopedLevel scoped(static_cast<simd::Level>(level));
        std::vector<double> got(count + 1, -7.0);
        simd::kernels().fir_decimate(taps.data(), taps.size(), rows.data(), stride, step,
                                     got.data(), count);
        for (std::size_t m = 0; m < count; ++m) {
          ASSERT_TRUE(same_bits(got[m], want[m]))
              << "step " << step << " count " << count << " output " << m << " at "
              << simd::kernels().name;
        }
        EXPECT_EQ(got[count], -7.0) << "wrote past count at " << simd::kernels().name;
      }
    }
  }
}

}  // namespace
}  // namespace headtalk::dsp
