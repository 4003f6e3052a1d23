// Scalar-vs-SIMD equivalence suite (ctest label `simd-equivalence`).
//
// Every kernel-backed DSP entry point is swept in-process across both
// dispatch levels the host supports (the scalar reference and AVX2) and
// compared against the scalar reference bit for bit: no level fuses a
// multiply and an add, and the transforms put signals in vector lanes
// instead of reordering any sum, so transforms, GCC/SRP windows and the
// multichannel biquad cascade all give the scalar bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/incremental_extractor.h"
#include "dsp/biquad.h"
#include "dsp/correlation.h"
#include "dsp/fft.h"
#include "dsp/fractional_delay.h"
#include "dsp/simd/dispatch.h"

namespace headtalk::dsp {
namespace {

/// Forces a dispatch level for one scope, restoring the previous level.
class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level) : previous_(simd::set_level(level)) {}
  ~ScopedLevel() { simd::set_level(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  simd::Level previous_;
};

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  const auto max = static_cast<int>(simd::max_supported_level());
  for (int l = 1; l <= max; ++l) levels.push_back(static_cast<simd::Level>(l));
  return levels;
}

std::vector<audio::Sample> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<audio::Sample> x(n);
  for (auto& v : x) v = u(rng);
  return x;
}

audio::MultiBuffer delayed_capture(std::size_t channels, std::size_t frames,
                                   unsigned seed) {
  const auto base = random_signal(frames, seed);
  std::vector<audio::Buffer> bufs;
  for (std::size_t k = 0; k < channels; ++k) {
    bufs.emplace_back(fractional_delay(base, static_cast<double>(k)), 48000.0);
  }
  return audio::MultiBuffer(std::move(bufs));
}

/// Exact equality: the first differing element fails with both bit patterns.
void expect_bits_equal(const std::vector<double>& got, const std::vector<double>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    const auto got_bits = std::bit_cast<std::uint64_t>(got[k]);
    const auto want_bits = std::bit_cast<std::uint64_t>(want[k]);
    if (got_bits != want_bits) {
      EXPECT_EQ(got_bits, want_bits)
          << what << " index " << k << ": " << got[k] << " vs " << want[k];
      return;
    }
  }
}

/// Interleaved re, im of a complex sequence, for exact comparison.
std::vector<double> complex_parts(const std::vector<Complex>& values) {
  std::vector<double> parts;
  for (const Complex& v : values) {
    parts.push_back(v.real());
    parts.push_back(v.imag());
  }
  return parts;
}

TEST(SimdDispatch, FirstUseResolvesToMaxSupported) {
  // Meaningful only before anything calls set_level: ctest runs it alone
  // (simd_dispatch_first_use).
  EXPECT_EQ(simd::active_level(), simd::max_supported_level());
  EXPECT_STREQ(simd::kernels().name, simd::level_name(simd::max_supported_level()));
}

TEST(SimdDispatch, SetLevelClampsAndRestores) {
  const simd::Level original = simd::active_level();
  const simd::Level previous = simd::set_level(simd::Level::kAvx2);
  EXPECT_EQ(previous, original);
  EXPECT_LE(static_cast<int>(simd::active_level()),
            static_cast<int>(simd::max_supported_level()));
  simd::set_level(simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_STREQ(simd::kernels().name, "scalar");
  simd::set_level(original);
  EXPECT_EQ(simd::active_level(), original);
}

TEST(SimdEquivalence, ForwardInverseFftAcrossLevels) {
  const auto x = random_signal(1000, 11);
  ScopedLevel scalar(simd::Level::kScalar);
  const HalfSpectrum reference = rfft_half(x, 2048);
  const auto reference_inverse = irfft_half(reference, x.size());
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    const std::string at = std::string(" at level ") + simd::level_name(level);
    const HalfSpectrum spectrum = rfft_half(x, 2048);
    expect_bits_equal(complex_parts(spectrum.bins), complex_parts(reference.bins),
                      "rfft_half" + at);
    expect_bits_equal(irfft_half(spectrum, x.size()), reference_inverse, "irfft_half" + at);
  }
}

TEST(SimdEquivalence, MagnitudeSpectrumAcrossLevels) {
  const auto x = random_signal(700, 12);
  ScopedLevel scalar(simd::Level::kScalar);
  const auto reference = magnitude_spectrum(x, 1024);
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    expect_bits_equal(magnitude_spectrum(x, 1024), reference,
                      std::string("magnitude_spectrum at level ") + simd::level_name(level));
  }
}

TEST(SimdEquivalence, PrunedInverseWindowMatchesFullSlice) {
  // The lag-windowed inverse must agree with slicing the full inverse bit
  // for bit — for every level and for windows from tiny to nearly the
  // whole transform (the pruning degenerates to a full inverse at the top
  // end) — and every level's window with the scalar level's.
  const auto x = random_signal(900, 13);
  const std::vector<int> max_lags = {1, 5, 13, 100, 511};
  std::vector<std::vector<double>> scalar_windows;
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    const HalfSpectrum spectrum = rfft_half(x, 1024);
    const auto full = irfft_half(spectrum, 0);
    FftScratch scratch;
    std::vector<double> window;
    for (std::size_t i = 0; i < max_lags.size(); ++i) {
      const int max_lag = max_lags[i];
      const std::string what =
          "max_lag " + std::to_string(max_lag) + " at level " + simd::level_name(level);
      irfft_half_window_into(spectrum, max_lag, window, scratch);
      ASSERT_EQ(window.size(), static_cast<std::size_t>(2 * max_lag + 1));
      std::vector<double> want;
      for (int lag = -max_lag; lag <= max_lag; ++lag) {
        want.push_back(full[lag >= 0 ? static_cast<std::size_t>(lag)
                                     : full.size() - static_cast<std::size_t>(-lag)]);
      }
      expect_bits_equal(window, want, what);
      if (level == simd::Level::kScalar) {
        scalar_windows.push_back(window);
      } else {
        expect_bits_equal(window, scalar_windows[i], what + " against scalar");
      }
    }
  }
}

TEST(SimdEquivalence, GccPhatValuesAndPeakLagAcrossLevels) {
  const auto x = random_signal(1500, 14);
  const auto y = fractional_delay(x, 3.0);
  ScopedLevel scalar(simd::Level::kScalar);
  const CorrelationSequence reference = gcc_phat(x, y, 13);
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    const CorrelationSequence gcc = gcc_phat(x, y, 13);
    EXPECT_EQ(gcc.peak_lag(), reference.peak_lag())
        << "at level " << simd::level_name(level);
    expect_bits_equal(gcc.values, reference.values,
                      std::string("gcc_phat at level ") + simd::level_name(level));
  }
}

TEST(SimdEquivalence, DenseSrpAcrossLevels) {
  // The operator's finalized SRP and per-pair GCC windows: lane block
  // spectra, PHAT cross spectra, pruned inverse transforms and the SRP sum
  // all run through the dispatched kernels.
  const auto capture = delayed_capture(4, 2048, 15);
  core::IncrementalExtractorConfig config;
  config.orientation.max_lag = 13;
  config.enable_liveness = false;
  struct Result {
    std::vector<double> srp;
    std::vector<std::vector<double>> pairs;
  };
  auto run = [&] {
    core::IncrementalExtractor op;
    op.begin(config, capture.channel_count(), capture.sample_rate());
    op.push(capture);
    (void)op.finalize_orientation();
    Result r{{op.srp().begin(), op.srp().end()}, {}};
    for (std::size_t p = 0; p < op.pair_count(); ++p) {
      r.pairs.emplace_back(op.pair_gcc(p).begin(), op.pair_gcc(p).end());
    }
    return r;
  };
  ScopedLevel scalar(simd::Level::kScalar);
  const Result reference = run();
  ASSERT_EQ(reference.pairs.size(), 6u);
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    const std::string at = std::string(" at level ") + simd::level_name(level);
    const Result got = run();
    expect_bits_equal(got.srp, reference.srp, "srp" + at);
    ASSERT_EQ(got.pairs.size(), reference.pairs.size());
    for (std::size_t p = 0; p < got.pairs.size(); ++p) {
      expect_bits_equal(got.pairs[p], reference.pairs[p],
                        "pair " + std::to_string(p) + " gcc" + at);
    }
  }
}

TEST(SimdEquivalence, BiquadLanesMatchCascadeAcrossLevels) {
  // The cascade kernel keeps channels in vector lanes and one channel's
  // sections across lanes (ramp and drain one section at a time), in
  // passes of at most 8 sections. Every lane's output and carried delay
  // line must equal a per-channel BiquadCascade::process bit for bit, at
  // every level, for 1 to 12 sections (the band-pass is 6, the liveness
  // anti-alias 5), full and ragged lane groups, and calls of any size —
  // shorter than the diagonal, exactly it, and ending mid transposed block.
  const std::vector<BiquadCascade> designs = {
      butterworth_lowpass(1, 4000.0, 48000.0),          // 1 (first order)
      butterworth_highpass(4, 100.0, 48000.0),          // 2
      butterworth_highpass(5, 100.0, 48000.0),          // 3
      butterworth_lowpass(10, 7200.0, 48000.0),         // 5: liveness anti-alias
      butterworth_bandpass(5, 100.0, 16000.0, 48000.0), // 6: the band-pass
      butterworth_bandpass(8, 100.0, 16000.0, 48000.0), // 8
      butterworth_lowpass(17, 7200.0, 48000.0),         // 9: two passes
      butterworth_bandpass(11, 100.0, 16000.0, 48000.0) // 12: two passes
  };
  constexpr std::size_t kFrames = 2000;
  for (const BiquadCascade& design : designs) {
    std::vector<double> coeffs;
    for (const Biquad& s : design.sections()) {
      coeffs.insert(coeffs.end(), {s.b0, s.b1, s.b2, s.a1, s.a2});
    }
    const std::size_t sections = design.section_count();
    // Call sizes around the diagonal of the whole cascade and of its
    // first pass.
    std::vector<std::size_t> chunks{1, 7, 960, kFrames};
    for (const std::size_t d : {sections, std::min<std::size_t>(sections, 8)}) {
      chunks.insert(chunks.end(), {std::max<std::size_t>(d - 1, 1), d, 2 * d - 1});
    }
    std::sort(chunks.begin(), chunks.end());
    chunks.erase(std::unique(chunks.begin(), chunks.end()), chunks.end());
    for (const std::size_t lanes : {1u, 2u, 3u, 4u, 5u, 8u}) {
      std::vector<std::vector<double>> in;
      std::vector<std::vector<double>> want;
      std::vector<double> want_state(2 * sections * lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        in.push_back(random_signal(kFrames, static_cast<unsigned>(100 + 10 * lanes + l)));
        BiquadCascade cascade = design;
        want.push_back(in.back());
        cascade.process(want.back());
        for (std::size_t s = 0; s < sections; ++s) {
          want_state[2 * s * lanes + l] = cascade.sections()[s].z1();
          want_state[(2 * s + 1) * lanes + l] = cascade.sections()[s].z2();
        }
      }
      for (const simd::Level level : supported_levels()) {
        ScopedLevel scoped(level);
        for (const std::size_t chunk : chunks) {
          const std::string what = std::string(simd::level_name(level)) + " sections " +
                                   std::to_string(sections) + " lanes " +
                                   std::to_string(lanes) + " chunk " +
                                   std::to_string(chunk);
          std::vector<std::vector<double>> out(lanes, std::vector<double>(kFrames));
          std::vector<double> state(2 * sections * lanes, 0.0);
          std::vector<const double*> in_ptrs(lanes);
          std::vector<double*> out_ptrs(lanes);
          for (std::size_t offset = 0; offset < kFrames; offset += chunk) {
            for (std::size_t l = 0; l < lanes; ++l) {
              in_ptrs[l] = in[l].data() + offset;
              out_ptrs[l] = out[l].data() + offset;
            }
            simd::kernels().biquad_cascade(coeffs.data(), sections, state.data(), lanes,
                                           in_ptrs.data(), out_ptrs.data(),
                                           std::min(chunk, kFrames - offset));
          }
          for (std::size_t l = 0; l < lanes; ++l) {
            expect_bits_equal(out[l], want[l],
                              what + " output of lane " + std::to_string(l));
          }
          expect_bits_equal(state, want_state, what + " state");
        }
      }
    }
  }
}

// ---- decode_f32: the AUDIO_CHUNK sample decoder ----------------------------

/// The per-sample decoder the bulk kernel replaced, kept as its reference:
/// each sample assembled from its little-endian bytes, checked to be finite
/// (a NaN or ±Inf throws, the samples before it delivered) and handed to
/// put(frame, channel, sample) in wire order.
template <class Put>
void reference_decode(const std::uint8_t* p, std::size_t frames, std::size_t channels,
                      Put&& put) {
  for (std::size_t f = 0; f < frames; ++f) {
    for (std::size_t c = 0; c < channels; ++c, p += sizeof(float)) {
      const std::uint32_t bits = std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
                                 std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
      const float sample = std::bit_cast<float>(bits);
      if (!std::isfinite(sample)) throw std::runtime_error("non-finite sample");
      put(f, c, sample);
    }
  }
}

/// `lead` junk bytes, then the little-endian bytes of `bits` (so the
/// samples can start at any alignment).
std::vector<std::uint8_t> wire_bytes(const std::vector<std::uint32_t>& bits,
                                     std::size_t lead) {
  std::vector<std::uint8_t> bytes(lead, 0xA5);
  for (const std::uint32_t b : bits) {
    for (int k = 0; k < 4; ++k) bytes.push_back(static_cast<std::uint8_t>(b >> (8 * k)));
  }
  return bytes;
}

/// Finite samples: mostly uniform audio, with every few samples one of the
/// edge values the decoder must accept (subnormals, ±0, ±FLT_MAX, the
/// smallest normals).
std::vector<std::uint32_t> finite_samples(std::size_t count, unsigned seed) {
  constexpr std::uint32_t kEdges[] = {0x00000001u, 0x807fffffu, 0x00000000u, 0x80000000u,
                                      0x7f7fffffu, 0xff7fffffu, 0x00800000u, 0x80800000u};
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> u(-1.0f, 1.0f);
  std::vector<std::uint32_t> bits(count);
  for (std::size_t i = 0; i < count; ++i) {
    bits[i] = i % 5 == 3 ? kEdges[(i / 5) % std::size(kEdges)]
                         : std::bit_cast<std::uint32_t>(u(rng));
  }
  return bits;
}

constexpr double kUntouchedSample = -12345.0;
constexpr float kUntouchedFloat = -54321.0f;

/// The per-channel and interleaved destinations of one decode, filled with
/// sentinels.
struct DecodeTargets {
  std::vector<std::vector<double>> channels;
  std::vector<double*> pointers;
  std::vector<float> interleaved;

  DecodeTargets(std::size_t channel_count, std::size_t frames)
      : channels(channel_count, std::vector<double>(frames, kUntouchedSample)),
        interleaved(channel_count * frames, kUntouchedFloat) {
    for (auto& channel : channels) pointers.push_back(channel.data());
  }

  [[nodiscard]] bool untouched() const {
    for (const auto& channel : channels) {
      for (const double v : channel) {
        if (v != kUntouchedSample) return false;
      }
    }
    for (const float v : interleaved) {
      if (v != kUntouchedFloat) return false;
    }
    return true;
  }
};

TEST(SimdDecode, BulkDecoderEqualsPerSampleReferenceAtEveryLevel) {
  // Every channel count 1-8 and 16, chunk lengths around each vector width
  // (tails included), payloads at every alignment mod 4: the per-channel
  // doubles and the interleaved floats equal the reference bit for bit.
  const std::size_t channel_counts[] = {1, 2, 3, 4, 5, 6, 7, 8, 16};
  const std::size_t frame_counts[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100};
  for (const std::size_t channels : channel_counts) {
    for (const std::size_t frames : frame_counts) {
      const std::size_t lead = (channels + frames) % 4;
      const auto seed = static_cast<unsigned>(channels * 131 + frames);
      const auto bytes = wire_bytes(finite_samples(frames * channels, seed), lead);
      const std::uint8_t* payload = bytes.data() + lead;
      std::vector<std::vector<double>> want(channels, std::vector<double>(frames));
      std::vector<float> want_interleaved;
      reference_decode(payload, frames, channels,
                       [&](std::size_t f, std::size_t c, float sample) {
                         want[c][f] = static_cast<double>(sample);
                         want_interleaved.push_back(sample);
                       });
      for (const simd::Level level : supported_levels()) {
        ScopedLevel scoped(level);
        const std::string what = std::string(simd::level_name(level)) + ", " +
                                 std::to_string(channels) + " channels, " +
                                 std::to_string(frames) + " frames";
        DecodeTargets got(channels, frames);
        const auto& decode = simd::kernels().decode_f32;
        ASSERT_TRUE(decode(payload, frames, channels, got.pointers.data(), nullptr))
            << what;
        ASSERT_TRUE(decode(payload, frames, channels, nullptr, got.interleaved.data()))
            << what;
        ASSERT_TRUE(decode(payload, frames, channels, nullptr, nullptr)) << what;
        for (std::size_t c = 0; c < channels; ++c) {
          expect_bits_equal(got.channels[c], want[c], what);
        }
        for (std::size_t i = 0; i < want_interleaved.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got.interleaved[i]),
                    std::bit_cast<std::uint32_t>(want_interleaved[i]))
              << what << " sample " << i;
        }
      }
    }
  }
}

TEST(SimdDecode, NonFiniteSampleAnywhereWritesNothing) {
  // Quiet and signalling NaNs, NaNs with payload bits and either sign, and
  // ±Inf, at every position mod 16 and at the last sample: the kernel
  // returns false (so does the per-sample reference) and leaves every
  // destination as it was.
  constexpr std::uint32_t kBad[] = {0x7fc00000u, 0xffc00000u, 0x7f800001u, 0xff812345u,
                                    0x7fffffffu, 0x7f800000u, 0xff800000u};
  for (const std::size_t channels : {1u, 2u, 3u, 4u, 8u, 16u}) {
    const std::size_t frames = 33;
    const std::size_t count = frames * channels;
    std::vector<std::size_t> positions;
    for (std::size_t at = 0; at < 16; ++at) positions.push_back(at);
    for (std::size_t at = count / 2; at < count / 2 + 16; ++at) positions.push_back(at);
    positions.push_back(count - 1);
    for (const std::uint32_t bad : kBad) {
      for (const std::size_t at : positions) {
        auto bits = finite_samples(count, static_cast<unsigned>(at));
        bits[at] = bad;
        const auto bytes = wire_bytes(bits, at % 4);
        const std::uint8_t* payload = bytes.data() + at % 4;
        EXPECT_THROW(reference_decode(payload, frames, channels,
                                      [](std::size_t, std::size_t, float) {}),
                     std::runtime_error);
        for (const simd::Level level : supported_levels()) {
          ScopedLevel scoped(level);
          DecodeTargets got(channels, frames);
          const auto& decode = simd::kernels().decode_f32;
          ASSERT_FALSE(decode(payload, frames, channels, got.pointers.data(),
                              got.interleaved.data()))
              << simd::level_name(level) << ", " << channels << " channels, bad 0x"
              << std::hex << bad << std::dec << " at " << at;
          ASSERT_FALSE(decode(payload, frames, channels, nullptr, nullptr));
          ASSERT_TRUE(got.untouched()) << simd::level_name(level) << ", at " << at;
        }
      }
    }
  }
}

// ---- sum_squares: the block envelope's reduction ----------------------------

/// Kernels::sum_squares' documented order: 16 partial sums, sum j taking
/// x[i]² for i ≡ j (mod 16) in increasing i, folded pairwise.
double reference_sum_squares(const double* x, std::size_t count) {
  double s[16] = {};
  for (std::size_t i = 0; i < count; ++i) s[i % 16] += x[i] * x[i];
  for (std::size_t w = 8; w > 0; w /= 2) {
    for (std::size_t j = 0; j < w; ++j) s[j] += s[j + w];
  }
  return s[0];
}

TEST(SimdSumSquares, LaneReductionFollowsItsOrderAtEveryLevel) {
  // Every length up to three blocks of 16 and the operator's block lengths,
  // at every alignment of the first sample: the same bits as the scalar
  // evaluation of the documented order (a fused multiply-add at any level
  // breaks this).
  const auto x = random_signal(1100, 77);
  std::vector<std::size_t> counts;
  for (std::size_t n = 0; n <= 48; ++n) counts.push_back(n);
  for (const std::size_t n : {320u, 959u, 960u, 961u, 1024u}) counts.push_back(n);
  for (const simd::Level level : supported_levels()) {
    ScopedLevel scoped(level);
    const auto& sum_squares = simd::kernels().sum_squares;
    for (const std::size_t count : counts) {
      for (std::size_t offset = 0; offset < 4; ++offset) {
        const double got = sum_squares(x.data() + offset, count);
        const double want = reference_sum_squares(x.data() + offset, count);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
            << simd::level_name(level) << ", " << count << " samples at offset "
            << offset;
      }
    }
  }
}

}  // namespace
}  // namespace headtalk::dsp
