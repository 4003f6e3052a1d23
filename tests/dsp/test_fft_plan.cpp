// The shared FFT plan cache: plan correctness against a naive DFT, cache
// accounting, cold-vs-warm determinism, and a multithreaded stress test
// (part of the TSan subset — see tools/run_tsan_tests.sh).
#include "dsp/fft_plan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numbers>
#include <random>
#include <thread>
#include <vector>

#include "dsp/fft.h"

namespace headtalk::dsp {
namespace {

std::vector<audio::Sample> random_real(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<audio::Sample> x(n);
  for (auto& v : x) v = u(rng);
  return x;
}

/// Bins 0 .. n/2 of the DFT of a real n-point signal, by definition.
std::vector<Complex> naive_half_dft(const std::vector<audio::Sample>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    Complex sum{};
    for (std::size_t i = 0; i < n; ++i) {
      const double phase = -2.0 * std::numbers::pi * static_cast<double>(k * i) /
                           static_cast<double>(n);
      sum += x[i] * Complex(std::cos(phase), std::sin(phase));
    }
    out[k] = sum;
  }
  return out;
}

TEST(FftPlan, ForwardMatchesNaiveDft) {
  // rfft_half runs the plan of size n/2 on the packed signal.
  for (std::size_t n : {2u, 4u, 8u, 64u, 256u}) {
    const auto x = random_real(n, static_cast<unsigned>(n));
    const auto expected = naive_half_dft(x);
    const auto got = rfft_half(x, n);
    for (std::size_t k = 0; k <= n / 2; ++k) {
      EXPECT_NEAR(std::abs(got.bins[k] - expected[k]), 0.0, 1e-9)
          << "n=" << n << " bin " << k;
    }
  }
}

TEST(FftPlan, InverseRoundTrip) {
  for (std::size_t n : {2u, 4u, 128u}) {
    const auto x = random_real(n, 3);
    const auto back = irfft_half(rfft_half(x, n));
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], x[i], 1e-10) << "n=" << n;
  }
}

TEST(FftPlan, RejectsNonPowerOfTwoSizes) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(12), std::invalid_argument);
  EXPECT_THROW(FftPlan(100), std::invalid_argument);
}

TEST(FftPlanCache, CountsHitsAndMisses) {
  auto& cache = FftPlanCache::global();
  const bool was_enabled = cache.set_enabled(true);
  cache.clear();
  const auto before = cache.stats();

  const auto a = cache.get(1 << 14);  // first request: a miss
  const auto b = cache.get(1 << 14);  // same size again: a hit
  EXPECT_EQ(a.get(), b.get());

  const auto after = cache.stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_GE(after.plans, 1u);
  cache.set_enabled(was_enabled);
}

TEST(FftPlanCache, DisabledBuildsFreshPlansAndCountsMisses) {
  auto& cache = FftPlanCache::global();
  const bool was_enabled = cache.set_enabled(false);
  const auto before = cache.stats();
  const auto a = cache.get(256);
  const auto b = cache.get(256);
  EXPECT_NE(a.get(), b.get());  // no sharing while disabled
  const auto after = cache.stats();
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(after.hits, before.hits);
  cache.set_enabled(was_enabled);
}

TEST(FftPlanCache, ColdAndWarmTransformsAreBitIdentical) {
  // The cornerstone of the scoring-engine determinism contract: caching a
  // plan must never change a single output bit versus building it fresh.
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<audio::Sample> signal(700);
  for (auto& v : signal) v = u(rng);

  auto& cache = FftPlanCache::global();
  const bool was_enabled = cache.set_enabled(false);
  cache.clear();
  const auto cold = rfft_half(signal, 1024);
  cache.set_enabled(true);
  const auto warm_first = rfft_half(signal, 1024);   // populates the cache
  const auto warm_second = rfft_half(signal, 1024);  // served from the cache
  cache.set_enabled(was_enabled);

  ASSERT_EQ(cold.bins.size(), warm_first.bins.size());
  for (std::size_t k = 0; k < cold.bins.size(); ++k) {
    EXPECT_EQ(cold.bins[k].real(), warm_first.bins[k].real()) << "bin " << k;
    EXPECT_EQ(cold.bins[k].imag(), warm_first.bins[k].imag()) << "bin " << k;
    EXPECT_EQ(cold.bins[k].real(), warm_second.bins[k].real()) << "bin " << k;
    EXPECT_EQ(cold.bins[k].imag(), warm_second.bins[k].imag()) << "bin " << k;
  }
}

TEST(FftPlanCache, ConcurrentGetAndClearStress) {
  // Many threads transform across a handful of sizes (each call looks its
  // plan up in the global cache) while one thread periodically clears it;
  // shared_ptr ownership must keep every in-flight plan alive and every
  // transform correct. TSan runs this.
  auto& cache = FftPlanCache::global();
  const bool was_enabled = cache.set_enabled(true);
  cache.clear();

  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 60;
  const std::size_t sizes[] = {64, 128, 256, 512, 1024};
  std::atomic<bool> failed{false};

  // Reference spectra per size, computed single-threaded up front.
  std::vector<std::vector<audio::Sample>> inputs;
  std::vector<HalfSpectrum> expected;
  for (std::size_t n : sizes) {
    inputs.push_back(random_real(n, static_cast<unsigned>(n) + 99));
    expected.push_back(rfft_half(inputs.back(), n));
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FftScratch scratch;
      HalfSpectrum spectrum;
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t which = (t + static_cast<std::size_t>(round)) % std::size(sizes);
        rfft_half_into(inputs[which], sizes[which], spectrum, scratch);
        if (spectrum.bins != expected[which].bins) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        if (t == 0 && round % 16 == 7) cache.clear();  // evict under load
      }
    });
  }
  for (auto& thread : threads) thread.join();
  cache.set_enabled(was_enabled);

  EXPECT_FALSE(failed.load()) << "a cached plan produced a wrong or torn transform";
}

}  // namespace
}  // namespace headtalk::dsp
