// Lane-batched transforms (ctest label `simd-equivalence`): every lane of
// the lane kernels must equal the one-signal transform bit for bit, at
// every dispatch level the host supports — the forward and pruned inverse
// against a textbook per-lane radix-2 reference, the real-FFT lane
// wrappers against rfft_half_into / irfft_half_window_into, and the
// operator's features across levels for ragged channel and pair counts.
// The float32 instantiation (SimdFloatLanes) is held to the same textbook
// reference computed in float, and every float kernel to the scalar
// level's bits.

#include <gtest/gtest.h>

#include <algorithm>
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

constexpr std::size_t kLanes = simd::kLanes<double>;

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

/// Textbook in-place radix-2 DIT transform of one signal in T: bit
/// reversal, then stages len = 2 .. n with twiddles exp(-2*pi*i*k/len)
/// (computed in double, rounded to T; conjugated for the inverse),
/// butterflies evaluated as vr = br*wr - bi*wi, vi = br*wi + bi*wr. The
/// pruned variant skips the butterflies that feed only outputs outside
/// [0, front) ∪ [n - tail, n).
template <class T>
void reference_fft(std::vector<std::complex<T>>& x, bool inverse, std::size_t front,
                   std::size_t tail) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  const T sign = inverse ? T(-1) : T(1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    auto run = [&](std::size_t k_begin, std::size_t k_end) {
      for (std::size_t i = 0; i < n; i += len) {
        for (std::size_t k = k_begin; k < k_end; ++k) {
          const auto w = std::polar(1.0, angle * static_cast<double>(k));
          const T wr = static_cast<T>(w.real());
          const T wi = sign * static_cast<T>(w.imag());
          const T br = x[i + k + half].real();
          const T bi = x[i + k + half].imag();
          const T vr = br * wr - bi * wi;
          const T vi = br * wi + bi * wr;
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
    const T factor = T(1) / static_cast<T>(n);
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
  // The one-signal transforms' layout: one signal as min(4, n) float64
  // parts in lane 0 of rows of 4 / parts lanes (n = 1 rides alone in a
  // full row), the forward and the full and pruned parted inverse.
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    for (const std::size_t n : {1u, 2u, 4u, 8u, 16u, 256u, 4096u}) {
      const auto plan = FftPlanCache::global().get(n);
      const auto input = random_lanes(n, 500 + static_cast<unsigned>(n))[0];
      const std::size_t parts = std::min(kLanes, n);
      const std::size_t width = kLanes / parts;
      const std::size_t rows = n / parts;
      // Runs one transform; returns output p at out[p * width].
      auto run = [&](bool inverse, std::size_t front, std::size_t tail) {
        std::vector<double> re(rows * kLanes, 0.0), im(rows * kLanes, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t p = plan->bit_reverse()[i];
          re[(p % rows) * kLanes + (p / rows) * width] = input[i].real();
          im[(p % rows) * kLanes + (p / rows) * width] = input[i].imag();
        }
        if (parts == 1) {
          if (inverse) {
            plan->inverse_pruned_lanes(re.data(), im.data(), front, tail);
          } else {
            plan->forward_lanes(re.data(), im.data());
          }
          return std::pair(re, im);
        }
        std::vector<double> out_re(n * width), out_im(n * width);
        if (inverse) {
          plan->inverse_parted(re.data(), im.data(), parts, front, tail, out_re.data(),
                               out_im.data());
        } else {
          plan->forward_parted(re.data(), im.data(), parts, out_re.data(), out_im.data());
        }
        return std::pair(out_re, out_im);
      };
      auto check = [&](const char* what, bool inverse, std::size_t front, std::size_t tail) {
        const auto [got_re, got_im] = run(inverse, front, tail);
        auto want = input;
        reference_fft(want, inverse, front, tail);
        for (std::size_t p = 0; p < n; ++p) {
          if (p >= front && p < n - tail) continue;  // pruned output
          ASSERT_TRUE(same_bits(got_re[p * width], want[p].real()) &&
                      same_bits(got_im[p * width], want[p].imag()))
              << what << " n " << n << " out " << p << " at " << simd::level_name(level);
        }
      };
      check("forward", false, n, 0);
      check("inverse", true, n, 0);
      if (n >= 16) check("pruned", true, 3, 5);
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

TEST(SimdFftLanes, OneSignalTransformsAtTwoAndFourPoints) {
  // The smallest sizes ride as one part in a full row (2 points: a 1-point
  // packed transform) and as two parts (4 points): the spectrum, the
  // magnitudes, the inverse and the lag window equal the definitions, and
  // every level gives the scalar level's bits.
  for (const std::size_t n : {2u, 4u}) {
    const auto x = random_values(n, 950 + static_cast<unsigned>(n));
    const int max_lag = static_cast<int>(n / 2) - 1;  // the widest window n holds
    auto run = [&] {
      FftScratch scratch;
      HalfSpectrum spectrum;
      rfft_half_into(x, n, spectrum, scratch);
      std::vector<double> out;
      for (const Complex bin : spectrum.bins) {
        out.push_back(bin.real());
        out.push_back(bin.imag());
      }
      std::vector<double> part;
      magnitude_spectrum_into(x, n, part, scratch);
      out.insert(out.end(), part.begin(), part.end());
      irfft_half_into(spectrum, n, part, scratch);
      out.insert(out.end(), part.begin(), part.end());
      irfft_half_window_into(spectrum, max_lag, part, scratch);
      out.insert(out.end(), part.begin(), part.end());
      return out;
    };
    std::vector<double> reference;
    {
      ScopedLevel scalar(simd::Level::kScalar);
      reference = run();
    }
    for (const simd::Level level : supported_levels()) {
      ScopedLevel scoped(level);
      const auto got = run();
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(same_bits(got[i], reference[i]))
            << "n " << n << " value " << i << " at " << simd::level_name(level);
      }
    }
    const std::size_t bins = n / 2 + 1;
    for (std::size_t k = 0; k < bins; ++k) {
      Complex want{};
      for (std::size_t i = 0; i < n; ++i) {
        want += x[i] * std::polar(1.0, -2.0 * std::numbers::pi * static_cast<double>(k * i) /
                                           static_cast<double>(n));
      }
      EXPECT_NEAR(reference[2 * k], want.real(), 1e-12) << "n " << n << " bin " << k;
      EXPECT_NEAR(reference[2 * k + 1], want.imag(), 1e-12) << "n " << n << " bin " << k;
      EXPECT_NEAR(reference[2 * bins + k], std::abs(want), 1e-12) << "n " << n << " bin " << k;
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(reference[3 * bins + i], x[i], 1e-12) << "n " << n << " sample " << i;
    }
    // The lag window [-max_lag, max_lag] of the circular inverse.
    for (int lag = -max_lag; lag <= max_lag; ++lag) {
      const std::size_t m = static_cast<std::size_t>((lag + static_cast<int>(n)) % static_cast<int>(n));
      EXPECT_NEAR(reference[3 * bins + n + static_cast<std::size_t>(lag + max_lag)], x[m], 1e-12)
          << "n " << n << " lag " << lag;
    }
  }
}

TEST(SimdFftLanes, MagnitudesHeadEqualsHalfSpectrumMagnitudes) {
  // rfft_magnitudes_head over a ring's two runs is rfft_half_into of the
  // linearized window followed by sqrt(re^2 + im^2) per bin, bit for bit,
  // for any older/newer split, any partial fill and any bin count.
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
        for (std::size_t k = 0; k <= half; ++k) {
          const double re = spectrum.bins[k].real(), im = spectrum.bins[k].imag();
          want[k] = std::sqrt(re * re + im * im);
        }
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
  // pairs gathered across two groups give each pair's PHAT cross spectrum.
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
      simd::kernels().f64.phat_lanes(x.re, x.im, x.order, x.width, y.re, y.im, y.order,
                                     y.width, out_re.data(), out_im.data(), rows, 1e-12);
      for (std::size_t l = 0; l < pairs.size(); ++l) {
        // The PHAT formula on one pair, one bin at a time.
        std::vector<Complex> want(rows);
        for (std::size_t k = 0; k < rows; ++k) {
          const Complex x_k = one[pairs[l].first].bins[k];
          const Complex y_k = one[pairs[l].second].bins[k];
          const double cr = x_k.real() * y_k.real() + x_k.imag() * y_k.imag();
          const double ci = x_k.imag() * y_k.real() - x_k.real() * y_k.imag();
          const double mag = std::sqrt(cr * cr + ci * ci);
          if (mag > 1e-12) want[k] = Complex(cr * (1.0 / mag), ci * (1.0 / mag));
        }
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

// ---- float32 lanes ---------------------------------------------------------

constexpr std::size_t kLanesF = simd::kLanes<float>;

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

std::vector<float> random_floats(std::size_t n, unsigned seed) {
  const auto values = random_values(n, seed);
  return {values.begin(), values.end()};
}

std::vector<std::vector<std::complex<float>>> random_signals_f(std::size_t count, std::size_t n,
                                                               unsigned seed) {
  std::vector<std::vector<std::complex<float>>> signals(count);
  for (std::size_t l = 0; l < count; ++l) {
    const auto values = random_floats(2 * n, seed + static_cast<unsigned>(l));
    for (std::size_t i = 0; i < n; ++i) signals[l].emplace_back(values[2 * i], values[2 * i + 1]);
  }
  return signals;
}

TEST(SimdFloatLanes, ForwardAndPrunedInverseEqualFloatReference) {
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    auto check = [&](std::size_t n, std::size_t front, std::size_t tail, bool inverse) {
      const auto signals = random_signals_f(kLanesF, n, 40 + static_cast<unsigned>(n + front));
      const auto plan = FftPlanCache::global().get(n);
      std::vector<float> re(n * kLanesF), im(n * kLanesF);
      const auto bit_reverse = plan->bit_reverse();
      for (std::size_t l = 0; l < kLanesF; ++l) {
        for (std::size_t i = 0; i < n; ++i) {
          re[bit_reverse[i] * kLanesF + l] = signals[l][i].real();
          im[bit_reverse[i] * kLanesF + l] = signals[l][i].imag();
        }
      }
      if (inverse) {
        plan->inverse_pruned_lanes(re.data(), im.data(), front, tail);
      } else {
        plan->forward_lanes(re.data(), im.data());
      }
      for (std::size_t l = 0; l < kLanesF; ++l) {
        auto want = signals[l];
        reference_fft(want, inverse, front, tail);
        for (std::size_t p = 0; p < n; ++p) {
          if (p >= front && p < n - tail) continue;  // pruned output
          ASSERT_TRUE(same_bits(re[p * kLanesF + l], want[p].real()) &&
                      same_bits(im[p * kLanesF + l], want[p].imag()))
              << (inverse ? "inverse" : "forward") << " n " << n << " lane " << l << " out "
              << p << " at " << simd::level_name(level);
        }
      }
    };
    for (const std::size_t n : {1u, 2u, 4u, 8u, 64u, 512u}) check(n, n, 0, false);
    for (const auto& [front, tail] :
         std::vector<std::pair<std::size_t, std::size_t>>{{1, 1}, {7, 7}, {3, 60}, {256, 256}}) {
      check(512, front, tail, true);
    }
  }
}

TEST(SimdFloatLanes, PartedTransformsEqualFloatReference) {
  // 8 / parts signals, each held as `parts` parts: the stages within the
  // parts in place, then the ones across them in natural order.
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    for (const std::size_t parts : {2u, 4u, 8u}) {
      const std::size_t signals_per_row = kLanesF / parts;
      for (const std::size_t n : {8u, 64u, 512u}) {
        const std::size_t rows = n / parts;
        const auto signals = random_signals_f(signals_per_row, n, 60 + static_cast<unsigned>(n));
        const auto plan = FftPlanCache::global().get(n);
        const auto bit_reverse = plan->bit_reverse();
        std::vector<float> re(rows * kLanesF), im(rows * kLanesF);
        for (std::size_t g = 0; g < signals_per_row; ++g) {
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t p = bit_reverse[i];
            const std::size_t at = (p % rows) * kLanesF + (p / rows) * signals_per_row + g;
            re[at] = signals[g][i].real();
            im[at] = signals[g][i].imag();
          }
        }
        std::vector<float> out_re(n * signals_per_row), out_im(n * signals_per_row);
        plan->forward_parted(re.data(), im.data(), parts, out_re.data(), out_im.data());
        for (std::size_t g = 0; g < signals_per_row; ++g) {
          auto want = signals[g];
          reference_fft(want, false, n, 0);
          for (std::size_t p = 0; p < n; ++p) {
            ASSERT_TRUE(same_bits(out_re[p * signals_per_row + g], want[p].real()) &&
                        same_bits(out_im[p * signals_per_row + g], want[p].imag()))
                << parts << " parts, n " << n << " signal " << g << " bin " << p << " at "
                << simd::level_name(level);
          }
        }
      }
    }
  }
}

TEST(SimdFloatLanes, UnpackAndRepackEqualOneLaneFormulas) {
  // rfft_unpack_lanes on rows of 1, 2, 4 and 8 lanes, with bin limits that
  // end mid-vector, and irfft_repack_lanes into every part count, against
  // the unpack / repack formulas evaluated in float one lane at a time.
  const std::size_t half = 64;
  const auto plan = FftPlanCache::global().get(half);
  const auto w = plan->pack_twiddles<float>();
  const auto* wf = reinterpret_cast<const float*>(w.data());
  constexpr float kUntouched = 7.0f;
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    const auto& kernels = simd::kernels().f32;
    for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
      const auto z_re = random_floats(half * lanes, 80 + static_cast<unsigned>(lanes));
      const auto z_im = random_floats(half * lanes, 90 + static_cast<unsigned>(lanes));
      for (const std::size_t bins : {half + 1, half, half - 1, std::size_t{13}, std::size_t{2}}) {
        std::vector<float> out_re((half + 1) * lanes, kUntouched), out_im = out_re;
        kernels.rfft_unpack_lanes(z_re.data(), z_im.data(), lanes, wf, out_re.data(),
                                  out_im.data(), half, bins);
        for (std::size_t k = 0; k <= half; ++k) {
          for (std::size_t l = 0; l < lanes; ++l) {
            const std::size_t at = k * lanes + l;
            if (k == 0 || k >= std::min(bins, half)) {
              ASSERT_TRUE(out_re[at] == kUntouched && out_im[at] == kUntouched)
                  << "row " << k << " written, bins " << bins;
              continue;
            }
            const std::size_t b = (half - k) * lanes + l;
            const float er = 0.5f * (z_re[at] + z_re[b]);
            const float ei = 0.5f * (z_im[at] - z_im[b]);
            const float odr = 0.5f * (z_im[at] + z_im[b]);
            const float odi = -0.5f * (z_re[at] - z_re[b]);
            const float want_re = er + odr * w[k].real() - odi * w[k].imag();
            const float want_im = ei + odr * w[k].imag() + odi * w[k].real();
            ASSERT_TRUE(same_bits(out_re[at], want_re) && same_bits(out_im[at], want_im))
                << lanes << " lanes, bins " << bins << ", bin " << k << " lane " << l << " at "
                << simd::level_name(level);
          }
        }
      }
    }
    // The repack into 1, 2, 4 and 8 parts of kLanesF / parts signals.
    for (const std::size_t parts : {1u, 2u, 4u, 8u}) {
      const std::size_t width = kLanesF / parts, rows = half / parts;
      const auto b_re = random_floats((half + 1) * width, 100 + static_cast<unsigned>(parts));
      const auto b_im = random_floats((half + 1) * width, 110 + static_cast<unsigned>(parts));
      std::vector<float> z_re(half * width), z_im(half * width);
      kernels.irfft_repack_lanes(b_re.data(), b_im.data(), wf, plan->bit_reverse().data(), rows,
                                 parts, z_re.data(), z_im.data());
      for (std::size_t k = 0; k < half; ++k) {
        for (std::size_t g = 0; g < width; ++g) {
          const std::size_t a = k * width + g, b = (half - k) * width + g;
          const float er = 0.5f * (b_re[a] + b_re[b]);
          const float ei = 0.5f * (b_im[a] - b_im[b]);
          const float dr = 0.5f * (b_re[a] - b_re[b]);
          const float di = 0.5f * (b_im[a] + b_im[b]);
          const float wr = w[k].real(), wi = -w[k].imag();
          const float odr = dr * wr - di * wi;
          const float odi = dr * wi + di * wr;
          const std::size_t p = plan->bit_reverse()[k];
          const std::size_t at = (p % rows) * kLanesF + (p / rows) * width + g;
          ASSERT_TRUE(same_bits(z_re[at], er - odi) && same_bits(z_im[at], ei + odr))
              << parts << " parts, repack slot " << k << " signal " << g << " at "
              << simd::level_name(level);
        }
      }
    }
  }
}

TEST(SimdFloatLanes, PairKernelsMatchScalarAndCoherenceSumsInDouble) {
  // phat_lanes and coherence_lanes on operands read in place from rows of
  // 2, 4 and 8 lanes (spare lanes repeating a used one): every level gives
  // the scalar level's bits. The coherence sums are float64: they equal
  // the float64 kernel run on the widened operands, bit for bit.
  const std::size_t rows = 129;
  struct Operand {
    std::size_t width;
    std::uint32_t order[kLanesF];
  };
  const Operand operands[] = {{4, {0, 0, 0, 1, 1, 2, 0, 0}},
                              {4, {1, 2, 3, 2, 3, 3, 1, 1}},
                              {2, {1, 0, 1, 0, 0, 1, 1, 1}},
                              {8, {7, 6, 5, 4, 3, 2, 1, 0}}};
  const std::size_t groups = 2, stride = 4, block = 16;
  for (const auto& xo : operands) {
    for (const auto& yo : operands) {
      const auto x_re = random_floats(rows * xo.width, 110), x_im = random_floats(rows * xo.width, 111);
      const auto y_re = random_floats(rows * yo.width, 112), y_im = random_floats(rows * yo.width, 113);
      auto run = [&](std::vector<float>& out_re, std::vector<float>& out_im,
                     std::vector<double>& sums) {
        const auto& kernels = simd::kernels().f32;
        out_re.assign(rows * kLanesF, 0.0f);
        out_im.assign(rows * kLanesF, 0.0f);
        sums.assign(groups * 4 * kLanesF, 0.0);
        kernels.phat_lanes(x_re.data(), x_im.data(), xo.order, xo.width, y_re.data(),
                           y_im.data(), yo.order, yo.width, out_re.data(), out_im.data(), rows,
                           1e-12f);
        kernels.coherence_lanes(x_re.data(), x_im.data(), xo.order, xo.width, y_re.data(),
                                y_im.data(), yo.order, yo.width, rows, stride, block, groups,
                                sums.data());
      };
      std::vector<float> want_re, want_im;
      std::vector<double> want_sums;
      {
        ScopedLevel scalar(simd::Level::kScalar);
        run(want_re, want_im, want_sums);
      }
      for (const simd::Level level : supported_levels()) {
        ScopedLevel scoped(level);
        std::vector<float> got_re, got_im;
        std::vector<double> got_sums;
        run(got_re, got_im, got_sums);
        for (std::size_t i = 0; i < got_re.size(); ++i) {
          ASSERT_TRUE(same_bits(got_re[i], want_re[i]) && same_bits(got_im[i], want_im[i]))
              << "phat widths " << xo.width << "/" << yo.width << " entry " << i << " at "
              << simd::level_name(level);
        }
        for (std::size_t i = 0; i < got_sums.size(); ++i) {
          ASSERT_TRUE(same_bits(got_sums[i], want_sums[i]))
              << "coherence widths " << xo.width << "/" << yo.width << " sum " << i << " at "
              << simd::level_name(level);
        }
        if (xo.width > kLanes || yo.width > kLanes) continue;
        // The float64 kernel on the same values, four lanes at a time.
        const std::vector<double> dx_re(x_re.begin(), x_re.end()), dx_im(x_im.begin(), x_im.end());
        const std::vector<double> dy_re(y_re.begin(), y_re.end()), dy_im(y_im.begin(), y_im.end());
        for (std::size_t half = 0; half < 2; ++half) {
          std::vector<double> sums(groups * 4 * kLanes);
          simd::kernels().f64.coherence_lanes(
              dx_re.data(), dx_im.data(), xo.order + half * kLanes, xo.width,
              dy_re.data(), dy_im.data(), yo.order + half * kLanes, yo.width, rows,
              stride, block, groups, sums.data());
          for (std::size_t r = 0; r < groups * 4; ++r) {
            for (std::size_t l = 0; l < kLanes; ++l) {
              ASSERT_TRUE(same_bits(got_sums[r * kLanesF + half * kLanes + l],
                                    sums[r * kLanes + l]))
                  << "float64 coherence, sum row " << r << " lane " << l << " at "
                  << simd::level_name(level);
            }
          }
        }
      }
    }
  }
}

TEST(SimdFloatLanes, RealLaneWrappersAcrossLevelsAndNearFloat64) {
  // rfft_lanes_into<float> for 1..8 signals (rows of 4 lanes as two parts,
  // or of 8 lanes), irfft_lanes_window_into<float> on their PHAT cross
  // spectra and rfft_magnitudes_head<float> give the scalar level's bits
  // at every level, and stay within float rounding of the float64 path.
  const std::size_t fft_size = 1024;
  const int max_lag = 13;
  const std::size_t window = 2 * max_lag + 1;
  auto run = [&](std::size_t count, std::size_t valid, auto tag, std::vector<double>& spectrum,
                 std::vector<double>& windows, std::vector<double>& magnitudes) {
    using T = decltype(tag);
    constexpr std::size_t kN = simd::kLanes<T>;
    std::vector<std::vector<double>> signals;
    std::vector<const audio::Sample*> pointers;
    for (std::size_t l = 0; l < count; ++l) {
      signals.push_back(random_values(valid, 120 + static_cast<unsigned>(l + valid)));
    }
    for (const auto& x : signals) pointers.push_back(x.data());
    BasicLaneScratch<T> scratch;
    spectrum.clear();
    windows.clear();
    // Groups of at most kN signals, as the operator forms them.
    std::vector<BasicLaneSpectrum<T>> groups((count + kN - 1) / kN);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::size_t n = std::min(kN, count - g * kN);
      rfft_lanes_into<T>({pointers.data() + g * kN, n}, valid, fft_size, groups[g], scratch);
    }
    for (std::size_t c = 0; c < count; ++c) {  // signal by signal
      const auto& group = groups[c / kN];
      for (std::size_t k = 0; k <= fft_size / 2; ++k) {
        spectrum.push_back(group.re[k * group.lanes + c % kN]);
        spectrum.push_back(group.im[k * group.lanes + c % kN]);
      }
    }
    // Signal 0 against every signal (itself too), kN pairs at a time.
    BasicLaneSpectrum<T> cross, x_scratch, y_scratch;
    cross.fft_size = fft_size;
    cross.lanes = kN;
    cross.re.resize((fft_size / 2 + 1) * kN);
    cross.im.resize((fft_size / 2 + 1) * kN);
    std::vector<double> lag_windows;
    for (std::size_t first = 0; first < count; first += kN) {
      const BasicLaneSpectrum<T>* x_from[kN] = {};
      const BasicLaneSpectrum<T>* y_from[kN] = {};
      std::size_t x_lane[kN] = {}, y_lane[kN] = {};
      const std::size_t n = std::min(kN, count - first);
      for (std::size_t l = 0; l < n; ++l) {
        x_from[l] = &groups[0];
        y_from[l] = &groups[(first + l) / kN];
        y_lane[l] = (first + l) % kN;
      }
      const auto xs = select_lanes(x_from, x_lane, x_scratch);
      const auto ys = select_lanes(y_from, y_lane, y_scratch);
      simd::kernels().lanes<T>().phat_lanes(xs.re, xs.im, xs.order, xs.width, ys.re, ys.im,
                                            ys.order, ys.width, cross.re.data(),
                                            cross.im.data(), fft_size / 2 + 1, T(1e-12));
      irfft_lanes_window_into(cross, max_lag, lag_windows, scratch);
      windows.insert(windows.end(), lag_windows.begin(),
                     lag_windows.begin() + static_cast<std::ptrdiff_t>(n * window));
    }
    const std::span<const double> ring(signals[0]);
    magnitudes.assign(300, 0.0);
    rfft_magnitudes_head<T>(ring.subspan(valid / 3), ring.first(valid / 3), fft_size, 300,
                            magnitudes.data(), scratch);
  };
  for (const std::size_t count : {1u, 3u, 4u, 6u, 8u, 11u}) {
    for (const std::size_t valid : {960u, 331u}) {
      std::vector<double> want_spectrum, want_windows, want_magnitudes;
      {
        ScopedLevel scalar(simd::Level::kScalar);
        run(count, valid, 0.0f, want_spectrum, want_windows, want_magnitudes);
      }
      for (const simd::Level level : supported_levels()) {
        ScopedLevel scoped(level);
        std::vector<double> spectrum, windows, magnitudes;
        run(count, valid, 0.0f, spectrum, windows, magnitudes);
        ASSERT_EQ(spectrum, want_spectrum) << count << " signals at " << simd::level_name(level);
        ASSERT_EQ(windows, want_windows) << count << " signals at " << simd::level_name(level);
        ASSERT_EQ(magnitudes, want_magnitudes)
            << count << " signals at " << simd::level_name(level);
      }
      // Float rounding against the float64 path, relative to each result's
      // largest magnitude.
      std::vector<double> spectrum, windows, magnitudes;
      run(count, valid, 0.0, spectrum, windows, magnitudes);
      auto max_abs = [](const std::vector<double>& v) {
        double m = 0.0;
        for (const double x : v) m = std::max(m, std::abs(x));
        return m;
      };
      auto max_diff = [](const std::vector<double>& a, const std::vector<double>& b) {
        double m = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
        return m;
      };
      EXPECT_LE(max_diff(want_spectrum, spectrum), 1e-5 * max_abs(spectrum)) << count;
      EXPECT_LE(max_diff(want_windows, windows), 1e-5 * max_abs(windows)) << count;
      EXPECT_LE(max_diff(want_magnitudes, magnitudes), 1e-5 * max_abs(magnitudes)) << count;
    }
  }
}

// ---- pack_lanes ------------------------------------------------------------

/// pack_lanes in T against its per-slot formula, at every level: row r,
/// part q, lane g holds slot n = bit_reverse[q * rows + r] of signal g
/// (re = x[2n], im = x[2n + 1] converted to T, zero past `count` and for
/// g >= used), for every part count, every used count and sample counts
/// that end at, before and inside the last whole row, odd ones included.
/// Each signal holds exactly `count` samples, so a read past it is an
/// out-of-bounds read under ASan.
template <class T>
void expect_pack_matches_formula() {
  constexpr std::size_t kN = simd::kLanes<T>;
  const std::size_t half = 64;
  const auto plan = FftPlanCache::global().get(half);
  const auto bit_reverse = plan->bit_reverse();
  constexpr T kUntouched = T(7);
  for (std::size_t parts = 1; parts <= kN; parts *= 2) {
    const std::size_t width = kN / parts, rows = half / parts;
    for (std::size_t used = 1; used <= width; ++used) {
      const std::size_t counts[] = {0,  1,  2,  3,  17, 2 * parts - 1, 2 * parts,
                                    2 * parts + 1, 63, 64, 101, 2 * half - 2 * parts + 1,
                                    2 * half - 1, 2 * half};
      for (const std::size_t count : counts) {
        std::vector<std::vector<double>> signals;
        std::vector<const double*> pointers;
        for (std::size_t g = 0; g < used; ++g) {
          const auto seed = static_cast<unsigned>(300 + 17 * g + count);
          signals.push_back(random_values(count, seed));
        }
        for (const auto& x : signals) pointers.push_back(x.data());
        for (const simd::Level level : supported_levels()) {
          ScopedLevel scoped(level);
          std::vector<T> re(rows * kN, kUntouched), im(rows * kN, kUntouched);
          simd::kernels().lanes<T>().pack_lanes(pointers.data(), used, count,
                                                bit_reverse.data(), rows, parts,
                                                re.data(), im.data());
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t q = 0; q < parts; ++q) {
              const std::size_t n = bit_reverse[q * rows + r];
              for (std::size_t g = 0; g < width; ++g) {
                const bool has_re = g < used && 2 * n < count;
                const bool has_im = g < used && 2 * n + 1 < count;
                const T want_re = has_re ? static_cast<T>(signals[g][2 * n]) : T(0);
                const T want_im = has_im ? static_cast<T>(signals[g][2 * n + 1]) : T(0);
                const std::size_t at = r * kN + q * width + g;
                ASSERT_TRUE(same_bits(re[at], want_re) && same_bits(im[at], want_im))
                    << parts << " parts, " << used << " used, count " << count
                    << ": row " << r << " part " << q << " lane " << g << " at "
                    << simd::level_name(level);
              }
            }
          }
        }
      }
    }
  }
}

TEST(SimdFftLanes, PackLanesEqualsPerSlotFormula) {
  expect_pack_matches_formula<double>();
}

TEST(SimdFloatLanes, PackLanesEqualsPerSlotFormula) {
  expect_pack_matches_formula<float>();
}

}  // namespace
}  // namespace headtalk::dsp
