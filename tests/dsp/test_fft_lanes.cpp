// Lane-batched transforms (ctest label `simd-equivalence`): every lane of
// the lane kernels must equal the one-signal transform bit for bit, at
// every dispatch level the host supports — the forward and pruned inverse
// against a textbook per-lane radix-2 reference, the real-FFT lane
// wrappers against rfft_half_into / irfft_half_window_into, and the
// operator's features across levels for ragged channel and pair counts.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental_extractor.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/simd/dispatch.h"

namespace headtalk::dsp {
namespace {

constexpr std::size_t kLanes = simd::kFftLanes;

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  const auto max = static_cast<int>(simd::max_supported_level());
  for (int l = 1; l <= max; ++l) levels.push_back(static_cast<simd::Level>(l));
  return levels;
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

/// Textbook in-place radix-2 DIT transform of one signal: bit reversal,
/// then stages len = 2 .. n with twiddles exp(-2*pi*i*k/len) (conjugated
/// for the inverse), butterflies evaluated as vr = br*wr - bi*wi,
/// vi = br*wi + bi*wr. The pruned variant skips the butterflies that feed
/// only outputs outside [0, front) ∪ [n - tail, n).
void reference_fft(std::vector<std::complex<double>>& x, bool inverse, std::size_t front,
                   std::size_t tail) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  const double sign = inverse ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    auto run = [&](std::size_t k_begin, std::size_t k_end) {
      for (std::size_t i = 0; i < n; i += len) {
        for (std::size_t k = k_begin; k < k_end; ++k) {
          const auto w = std::polar(1.0, angle * static_cast<double>(k));
          const double wr = w.real();
          const double wi = sign * w.imag();
          const double br = x[i + k + half].real();
          const double bi = x[i + k + half].imag();
          const double vr = br * wr - bi * wi;
          const double vi = br * wi + bi * wr;
          const auto u = x[i + k];
          x[i + k] = {u.real() + vr, u.imag() + vi};
          x[i + k + half] = {u.real() - vr, u.imag() - vi};
        }
      }
    };
    if (front + tail >= half) {
      run(0, half);
    } else {
      run(0, front);
      run(half - tail, half);
    }
  }
  if (inverse) {
    const double factor = 1.0 / static_cast<double>(n);
    for (std::size_t p = 0; p < n; ++p) {
      if (p < front || p >= n - tail || front + tail >= n) {
        x[p] = {x[p].real() * factor, x[p].imag() * factor};
      }
    }
  }
}

/// Loads kLanes signals of n points into the lane layout, rows in
/// bit-reversed order.
void to_lanes(const std::vector<std::vector<std::complex<double>>>& signals,
              const FftPlan& plan, std::vector<double>& re, std::vector<double>& im) {
  const std::size_t n = plan.size();
  re.assign(n * kLanes, 0.0);
  im.assign(n * kLanes, 0.0);
  const auto bit_reverse = plan.bit_reverse();
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      re[bit_reverse[i] * kLanes + l] = signals[l][i].real();
      im[bit_reverse[i] * kLanes + l] = signals[l][i].imag();
    }
  }
}

std::vector<std::vector<std::complex<double>>> random_lanes(std::size_t n, unsigned seed) {
  std::vector<std::vector<std::complex<double>>> lanes(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    const auto values = random_values(2 * n, seed + static_cast<unsigned>(l));
    for (std::size_t i = 0; i < n; ++i) lanes[l].emplace_back(values[2 * i], values[2 * i + 1]);
  }
  return lanes;
}

TEST(SimdFftLanes, ForwardLanesEqualPerLaneReference) {
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    for (const std::size_t n : {1u, 2u, 4u, 8u, 64u, 512u, 2048u}) {
      const auto signals = random_lanes(n, 100 + static_cast<unsigned>(n));
      const auto plan = FftPlanCache::global().get(n);
      std::vector<double> re, im;
      to_lanes(signals, *plan, re, im);
      plan->forward_lanes(re.data(), im.data());
      for (std::size_t l = 0; l < kLanes; ++l) {
        auto want = signals[l];
        reference_fft(want, /*inverse=*/false, n, 0);
        for (std::size_t p = 0; p < n; ++p) {
          ASSERT_TRUE(same_bits(re[p * kLanes + l], want[p].real()) &&
                      same_bits(im[p * kLanes + l], want[p].imag()))
              << "n " << n << " lane " << l << " bin " << p << " at "
              << simd::level_name(level);
        }
      }
    }
  }
}

TEST(SimdFftLanes, PrunedInverseLanesEqualPerLaneReference) {
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    const std::size_t n = 512;
    const auto plan = FftPlanCache::global().get(n);
    for (const auto& [front, tail] :
         std::vector<std::pair<std::size_t, std::size_t>>{{1, 1}, {7, 7}, {3, 60}, {256, 256}}) {
      const auto signals = random_lanes(n, 300 + static_cast<unsigned>(front));
      std::vector<double> re, im;
      to_lanes(signals, *plan, re, im);
      plan->inverse_pruned_lanes(re.data(), im.data(), front, tail);
      for (std::size_t l = 0; l < kLanes; ++l) {
        auto want = signals[l];
        reference_fft(want, /*inverse=*/true, front, tail);
        for (std::size_t p = 0; p < n; ++p) {
          if (p >= front && p < n - tail) continue;  // pruned output
          ASSERT_TRUE(same_bits(re[p * kLanes + l], want[p].real()) &&
                      same_bits(im[p * kLanes + l], want[p].imag()))
              << "front " << front << " tail " << tail << " lane " << l << " out " << p
              << " at " << simd::level_name(level);
        }
      }
    }
  }
}

TEST(SimdFftLanes, QuarteredPlanTransformsEqualReference) {
  // FftPlan's one-signal transforms run as four quarter lanes plus the two
  // cross-lane stages; sizes below 4 ride in lane 0.
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    for (const std::size_t n : {1u, 2u, 4u, 8u, 16u, 256u, 4096u}) {
      const auto plan = FftPlanCache::global().get(n);
      const auto input = random_lanes(n, 500 + static_cast<unsigned>(n))[0];
      auto got = input;
      plan->forward(got);
      auto want = input;
      reference_fft(want, false, n, 0);
      for (std::size_t p = 0; p < n; ++p) {
        ASSERT_TRUE(same_bits(got[p].real(), want[p].real()) &&
                    same_bits(got[p].imag(), want[p].imag()))
            << "forward n " << n << " bin " << p << " at " << simd::level_name(level);
      }
      got = input;
      plan->inverse(got);
      want = input;
      reference_fft(want, true, n, 0);
      for (std::size_t p = 0; p < n; ++p) {
        ASSERT_TRUE(same_bits(got[p].real(), want[p].real()) &&
                    same_bits(got[p].imag(), want[p].imag()))
            << "inverse n " << n << " out " << p << " at " << simd::level_name(level);
      }
      if (n >= 16) {
        got = input;
        plan->inverse_pruned(got, 3, 5);
        want = input;
        reference_fft(want, true, 3, 5);
        for (std::size_t p = 0; p < n; ++p) {
          if (p >= 3 && p < n - 5) continue;
          ASSERT_TRUE(same_bits(got[p].real(), want[p].real()) &&
                      same_bits(got[p].imag(), want[p].imag()))
              << "pruned n " << n << " out " << p << " at " << simd::level_name(level);
        }
      }
    }
  }
}

TEST(SimdFftLanes, RealLaneWrappersEqualOneSignalTransforms) {
  // Ragged lane counts: 1..4 signals per group, with odd and even valid
  // lengths zero-padded to the transform.
  const std::size_t fft_size = 1024;
  const int max_lag = 13;
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    for (std::size_t count = 1; count <= kLanes; ++count) {
      for (const std::size_t valid : {960u, 331u}) {
        std::vector<std::vector<double>> signals;
        std::vector<const audio::Sample*> pointers;
        for (std::size_t l = 0; l < count; ++l) {
          signals.push_back(random_values(valid, 700 + static_cast<unsigned>(l + valid)));
        }
        for (const auto& s : signals) pointers.push_back(s.data());
        LaneSpectrum lanes;
        LaneScratch scratch;
        rfft_lanes_into(pointers, valid, fft_size, lanes, scratch);
        std::vector<double> windows;
        irfft_lanes_window_into(lanes, max_lag, windows, scratch);
        const std::size_t window = 2 * max_lag + 1;
        for (std::size_t l = 0; l < kLanes; ++l) {
          HalfSpectrum want;
          FftScratch one;
          rfft_half_into(l < count ? std::vector<double>(signals[l]) : std::vector<double>{},
                         fft_size, want, one);
          for (std::size_t k = 0; k < want.bins.size(); ++k) {
            ASSERT_TRUE(same_bits(lanes.re[k * kLanes + l], want.bins[k].real()) &&
                        same_bits(lanes.im[k * kLanes + l], want.bins[k].imag()))
                << count << " signals, lane " << l << " bin " << k << " at "
                << simd::level_name(level);
          }
          std::vector<double> want_window;
          irfft_half_window_into(want, max_lag, want_window, one);
          for (std::size_t i = 0; i < window; ++i) {
            ASSERT_TRUE(same_bits(windows[l * window + i], want_window[i]))
                << count << " signals, lane " << l << " lag " << i << " at "
                << simd::level_name(level);
          }
        }
      }
    }
  }
}

TEST(SimdFftLanes, MagnitudesHeadEqualsHalfSpectrumMagnitudes) {
  // rfft_magnitudes_head over a ring's two runs is rfft_half_into of the
  // linearized window followed by the magnitudes kernel, bit for bit, for
  // any older/newer split, any partial fill and any bin count.
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    LaneScratch scratch;
    FftScratch fft_scratch;
    HalfSpectrum spectrum;
    for (const std::size_t fft_size : {8u, 64u, 1024u}) {
      const std::size_t half = fft_size / 2;
      for (const std::size_t held : {fft_size, fft_size - 3, fft_size / 2 + 1, std::size_t{5}}) {
        const auto x = random_values(held, 700 + static_cast<unsigned>(fft_size + held));
        rfft_half_into(x, fft_size, spectrum, fft_scratch);
        std::vector<double> want(half + 1);
        simd::kernels().magnitudes(reinterpret_cast<const double*>(spectrum.bins.data()),
                                   half + 1, want.data());
        for (const std::size_t split : {std::size_t{0}, std::size_t{1}, held / 3, held}) {
          const std::span<const double> all(x);
          for (const std::size_t bins : {std::size_t{1}, half / 2, half, half + 1}) {
            std::vector<double> got(bins, -1.0);
            rfft_magnitudes_head(all.first(split), all.subspan(split), fft_size, bins,
                                 got.data(), scratch);
            for (std::size_t k = 0; k < bins; ++k) {
              ASSERT_TRUE(same_bits(got[k], want[k]))
                  << "fft " << fft_size << " held " << held << " split " << split << " bins "
                  << bins << " bin " << k << " at " << simd::level_name(level);
            }
          }
        }
      }
    }
  }
  LaneScratch scratch;
  std::vector<double> x(64, 0.0), out(64);
  const std::span<const double> all(x);
  EXPECT_THROW(rfft_magnitudes_head(all, {}, 48, 8, out.data(), scratch),
               std::invalid_argument);  // not a power of two
  EXPECT_THROW(rfft_magnitudes_head(all.first(4), {}, 4, 2, out.data(), scratch),
               std::invalid_argument);  // below 8 points
  EXPECT_THROW(rfft_magnitudes_head(all, all.first(1), 64, 8, out.data(), scratch),
               std::invalid_argument);  // more input than points
  EXPECT_THROW(rfft_magnitudes_head(all, {}, 64, 34, out.data(), scratch),
               std::invalid_argument);  // more bins than half + 1
}

TEST(SimdFftLanes, SelectedPairsMatchPerPairPhat) {
  // Pairs read in place from one channel group (a permute per row) and
  // pairs gathered across two groups give the per-pair cross_spectrum.
  const std::size_t fft_size = 256;
  const std::size_t rows = fft_size / 2 + 1;
  std::vector<std::vector<double>> channels;
  for (unsigned c = 0; c < 6; ++c) channels.push_back(random_values(200, 900 + c));
  std::vector<HalfSpectrum> one(channels.size());
  for (std::size_t c = 0; c < channels.size(); ++c) one[c] = rfft_half(channels[c], fft_size);
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    LaneSpectrum groups[2];
    LaneScratch scratch;
    const audio::Sample* g0[] = {channels[0].data(), channels[1].data(), channels[2].data(),
                                 channels[3].data()};
    const audio::Sample* g1[] = {channels[4].data(), channels[5].data()};
    rfft_lanes_into(g0, 200, fft_size, groups[0], scratch);
    rfft_lanes_into(g1, 200, fft_size, groups[1], scratch);
    const std::vector<std::vector<std::pair<std::size_t, std::size_t>>> cases = {
        {{0, 1}, {0, 2}, {0, 3}, {1, 2}},  // one source
        {{1, 3}, {2, 3}},                  // one source, spare lanes
        {{0, 4}, {3, 5}, {4, 5}},          // across groups
    };
    for (const auto& pairs : cases) {
      const LaneSpectrum* x_from[kLanes] = {};
      const LaneSpectrum* y_from[kLanes] = {};
      std::size_t x_lane[kLanes] = {}, y_lane[kLanes] = {};
      for (std::size_t l = 0; l < pairs.size(); ++l) {
        x_from[l] = &groups[pairs[l].first / kLanes];
        x_lane[l] = pairs[l].first % kLanes;
        y_from[l] = &groups[pairs[l].second / kLanes];
        y_lane[l] = pairs[l].second % kLanes;
      }
      LaneSpectrum x_scratch, y_scratch;
      const LaneSelection x = select_lanes(x_from, x_lane, x_scratch);
      const LaneSelection y = select_lanes(y_from, y_lane, y_scratch);
      std::vector<double> out_re(rows * kLanes), out_im(rows * kLanes);
      simd::kernels().phat_lanes(x.re, x.im, x.order, y.re, y.im, y.order, out_re.data(),
                                 out_im.data(), rows, 1e-12);
      for (std::size_t l = 0; l < pairs.size(); ++l) {
        std::vector<Complex> want(rows);
        simd::kernels().cross_spectrum(
            reinterpret_cast<const double*>(one[pairs[l].first].bins.data()),
            reinterpret_cast<const double*>(one[pairs[l].second].bins.data()),
            reinterpret_cast<double*>(want.data()), rows, /*phat=*/true, 1e-12);
        for (std::size_t k = 0; k < rows; ++k) {
          ASSERT_TRUE(same_bits(out_re[k * kLanes + l], want[k].real()) &&
                      same_bits(out_im[k * kLanes + l], want[k].imag()))
              << "pair (" << pairs[l].first << "," << pairs[l].second << ") bin " << k
              << " at " << simd::level_name(level);
        }
      }
    }
  }
}

audio::MultiBuffer burst_capture(std::size_t channels, std::size_t frames, unsigned seed) {
  audio::MultiBuffer capture(channels, frames, 48000.0);
  std::mt19937 rng(seed);
  std::normal_distribution<double> g(0.0, 0.002);
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t f = 0; f < frames; ++f) {
      double v = g(rng);
      if (f >= frames / 5 && f < frames - frames / 5) {
        const double t = (static_cast<double>(f) + 0.9 * static_cast<double>(c)) / 48000.0;
        v += 0.1 * std::sin(2.0 * std::numbers::pi * 310.0 * t) +
             0.05 * std::sin(2.0 * std::numbers::pi * 1770.0 * t);
      }
      capture.channel(c)[f] = v;
    }
  }
  return capture;
}

TEST(SimdFftLanes, OperatorFeaturesIdenticalAtEveryLevelForRaggedChannelCounts) {
  // 2, 3, 5 and 6 channels leave spare lanes in the channel groups (and 5
  // and 6 gather pairs across groups); 4 fills them exactly. The liveness
  // features — the anti-alias filter runs through the one-lane biquad
  // kernel — must not move between levels either.
  for (const std::size_t channels : {2u, 3u, 4u, 5u, 6u}) {
    const auto capture = burst_capture(channels, 48000 * 6 / 10 + 77, 40 + channels);
    auto run = [&] {
      core::IncrementalExtractor op;
      op.begin(core::IncrementalExtractorConfig{}, channels, capture.sample_rate());
      op.push(capture);
      auto features = op.finalize_orientation();
      const auto liveness = op.finalize_liveness();
      features.insert(features.end(), liveness.begin(), liveness.end());
      return features;
    };
    ScopedLevel scalar(simd::Level::kScalar);
    const auto reference = run();
    for (const simd::Level level : supported_levels()) {
      ScopedLevel scoped(level);
      const auto got = run();
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(same_bits(got[i], reference[i]))
            << channels << " channels, feature " << i << ": " << got[i] << " vs "
            << reference[i] << " at " << simd::level_name(level);
      }
    }
  }
}

}  // namespace
}  // namespace headtalk::dsp
