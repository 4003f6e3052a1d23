// Incremental-vs-batch equivalence — the tentpole contract of the
// streaming feature path. The batch extractors delegate to the same
// IncrementalExtractor the StreamingDetector feeds frame by frame, and
// every piece of accumulator state advances on cumulative sample counts
// alone, so chunking must be unobservable: any split of the same samples
// — down to single-sample pushes — yields bit-identical features and
// identical pipeline verdicts. The suite asserts exact equality (stronger
// than a 1e-9 budget) and runs every sweep at both SIMD dispatch levels
// the host supports, the scalar reference and the best level, in-process
// (ctest label `simd-equivalence`).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "audio/sample_buffer.h"
#include "core/incremental_extractor.h"
#include "core/liveness_features.h"
#include "core/orientation_features.h"
#include "core/pipeline.h"
#include "dsp/simd/dispatch.h"
#include "serve_test_util.h"

using namespace headtalk;
using namespace headtalk::core;

namespace {

/// Chunk splits swept everywhere: single samples, a prime, one VAD frame
/// at 48 kHz, a big power of two, and one oversized push.
constexpr std::size_t kChunks[] = {1, 7, 960, 4096, 1 << 20};

/// A capture with the structure the extractor actually sees in a stream:
/// quiet noise floor, a harmonic burst in the middle (per-channel phase
/// offsets so GCC/SRP have real lags), quiet tail — so the silence trim
/// selects a proper interior span.
audio::MultiBuffer make_segment_capture(std::size_t channels, std::size_t frames,
                                        double sample_rate, unsigned seed) {
  audio::MultiBuffer capture(channels, frames, sample_rate);
  std::mt19937 rng(seed);
  std::normal_distribution<double> g(0.0, 0.002);
  const std::size_t burst_begin = frames / 6;
  const std::size_t burst_end = frames - frames / 6;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t f = 0; f < frames; ++f) {
      double v = g(rng);
      if (f >= burst_begin && f < burst_end) {
        const double t =
            (static_cast<double>(f) + 0.7 * static_cast<double>(c)) / sample_rate;
        for (int h = 1; h <= 5; ++h) {
          v += 0.08 * std::sin(2.0 * std::numbers::pi * 230.0 * h * t);
        }
      }
      capture.channel(c)[f] = v;
    }
  }
  return capture;
}

/// Feeds `capture` to `op` split into `chunk`-frame pieces.
void push_chunked(IncrementalExtractor& op, const audio::MultiBuffer& capture,
                  std::size_t chunk) {
  const std::size_t frames = capture.frames();
  for (std::size_t offset = 0; offset < frames; offset += chunk) {
    const std::size_t take = std::min(chunk, frames - offset);
    std::vector<audio::Buffer> pieces;
    pieces.reserve(capture.channel_count());
    for (std::size_t c = 0; c < capture.channel_count(); ++c) {
      pieces.push_back(capture.channel(c).slice(offset, take));
    }
    op.push(audio::MultiBuffer(std::move(pieces)));
  }
}

void expect_identical(const ml::FeatureVector& streamed,
                      const ml::FeatureVector& batch, std::size_t chunk) {
  ASSERT_EQ(streamed.size(), batch.size()) << "chunk " << chunk;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(streamed[i], batch[i])
        << "chunk " << chunk << " feature " << i;
  }
}

void sweep_orientation_chunks() {
  // The band-pass packs channels into SIMD lanes (4 per AVX2 register), so
  // the channel counts cover a full group and every kind of ragged tail.
  for (const std::size_t channels : {2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(testing::Message() << channels << " channels");
    const auto capture =
        make_segment_capture(channels, 12000, audio::kDefaultSampleRate, /*seed=*/3);
    const OrientationFeatureExtractor extractor;
    const auto batch = extractor.extract(capture);

    IncrementalExtractorConfig config;
    config.orientation = extractor.config();
    config.enable_liveness = false;
    for (const std::size_t chunk : kChunks) {
      IncrementalExtractor op;
      op.begin(config, capture.channel_count(), capture.sample_rate());
      push_chunked(op, capture, chunk);
      expect_identical(op.finalize_orientation(), batch, chunk);
    }
  }
}

void sweep_verdict_chunks() {
  static const HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  const auto capture =
      make_segment_capture(4, 12000, audio::kDefaultSampleRate, /*seed=*/5);
  FeatureCapture batch_features;
  const auto batch =
      pipeline.score_capture(capture, VaMode::kHeadTalk, /*followup=*/false,
                             /*session_active=*/false, nullptr, &batch_features);

  for (const std::size_t chunk : kChunks) {
    IncrementalExtractor op;
    op.begin(pipeline.incremental_config(), capture.channel_count(),
             capture.sample_rate());
    push_chunked(op, capture, chunk);
    FeatureCapture streamed_features;
    const auto streamed =
        pipeline.finalize_segment(op, VaMode::kHeadTalk, /*followup=*/false,
                                  /*session_active=*/false, &streamed_features);
    EXPECT_EQ(streamed.decision, batch.decision) << "chunk " << chunk;
    EXPECT_DOUBLE_EQ(streamed.liveness_score, batch.liveness_score)
        << "chunk " << chunk;
    EXPECT_DOUBLE_EQ(streamed.orientation_score, batch.orientation_score)
        << "chunk " << chunk;
    EXPECT_EQ(streamed.session_open_after, batch.session_open_after)
        << "chunk " << chunk;
    expect_identical(streamed_features.liveness, batch_features.liveness, chunk);
    expect_identical(streamed_features.orientation, batch_features.orientation,
                     chunk);
  }
}

/// The batch orientation features for 2..6 channels and the pipeline's
/// scores and feature vectors, at the active SIMD level.
std::vector<ml::FeatureVector> features_at_active_level() {
  static const HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  std::vector<ml::FeatureVector> out;
  for (const std::size_t channels : {2u, 3u, 4u, 5u, 6u}) {
    const auto capture =
        make_segment_capture(channels, 12000, audio::kDefaultSampleRate, /*seed=*/3);
    out.push_back(OrientationFeatureExtractor{}.extract(capture));
  }
  const auto capture = make_segment_capture(4, 12000, audio::kDefaultSampleRate, /*seed=*/5);
  FeatureCapture features;
  const auto decision = pipeline.score_capture(capture, VaMode::kHeadTalk, /*followup=*/false,
                                               /*session_active=*/false, nullptr, &features);
  out.push_back(features.liveness);
  out.push_back(features.orientation);
  out.push_back({decision.liveness_score, decision.orientation_score});
  return out;
}

}  // namespace

TEST(IncrementalEquivalence, OrientationMatchesBatchAtAnyChunking) {
  sweep_orientation_chunks();
}

TEST(IncrementalEquivalence, LivenessMatchesBatchAtAnyChunkingAndSampleRate) {
  // 16 kHz streams the band-passed channel as it is; 48 and 96 kHz run the
  // stateful integer decimator (steps 3 and 6). Four channels, so the trim
  // is the all-channel one serving applies.
  const dsp::simd::Level previous = dsp::simd::active_level();
  for (const auto level : {dsp::simd::Level::kScalar, dsp::simd::max_supported_level()}) {
    dsp::simd::set_level(level);
    SCOPED_TRACE(dsp::simd::level_name(level));
    for (const double rate : {48000.0, 16000.0, 96000.0}) {
      SCOPED_TRACE(testing::Message() << rate << " Hz");
      const auto capture = make_segment_capture(4, static_cast<std::size_t>(rate / 4),
                                                rate, /*seed=*/7);
      const LivenessFeatureExtractor extractor;
      const auto batch = extractor.extract(capture);

      IncrementalExtractorConfig config;
      config.liveness = extractor.config();
      config.enable_orientation = false;
      for (const std::size_t chunk : kChunks) {
        IncrementalExtractor op;
        op.begin(config, capture.channel_count(), rate);
        push_chunked(op, capture, chunk);
        expect_identical(op.finalize_liveness(), batch, chunk);
      }
    }
  }
  dsp::simd::set_level(previous);
  // Rates that are not a whole multiple of 16 kHz have no liveness path.
  for (const double rate : {44100.0, 8000.0}) {
    IncrementalExtractor op;
    EXPECT_THROW(op.begin(IncrementalExtractorConfig{}, 4, rate), std::invalid_argument)
        << rate << " Hz";
  }
}

TEST(IncrementalEquivalence, ReusedOperatorMatchesFreshAcrossRatesAndChannels) {
  // One operator begun segment after segment gives a fresh operator's bits
  // whether begin() redesigns its filters (a new rate or channel count) or
  // only zeroes their delay lines (the last segment's design again, after
  // a capture that left them nonzero).
  const std::pair<double, std::size_t> segments[] = {
      {48000.0, 4}, {48000.0, 4}, {16000.0, 4}, {48000.0, 4},
      {48000.0, 6}, {48000.0, 4}, {48000.0, 6}, {48000.0, 6}};
  const auto same_bits = [](const ml::FeatureVector& got, const ml::FeatureVector& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
          << "feature " << i << ": " << got[i] << " vs " << want[i];
    }
  };
  const IncrementalExtractorConfig config;
  IncrementalExtractor reused;
  unsigned seed = 20;
  for (const auto& [rate, channels] : segments) {
    SCOPED_TRACE(testing::Message() << rate << " Hz, " << channels << " channels");
    const auto capture =
        make_segment_capture(channels, static_cast<std::size_t>(rate / 4), rate, ++seed);
    IncrementalExtractor fresh;
    fresh.begin(config, channels, rate);
    push_chunked(fresh, capture, 960);
    reused.begin(config, channels, rate);
    push_chunked(reused, capture, 960);
    same_bits(reused.finalize_orientation(), fresh.finalize_orientation());
    same_bits(reused.finalize_liveness(), fresh.finalize_liveness());
  }
}

TEST(IncrementalEquivalence, PipelineVerdictMatchesScoreCapture) {
  sweep_verdict_chunks();
}

TEST(IncrementalEquivalence, HoldsAtEverySimdLevelInProcess) {
  // Chunk invariance at every level, and the features themselves equal
  // across levels bit for bit: every kernel rounds like the scalar
  // reference (no fused multiply-add, signals in lanes instead of
  // reordered sums).
  const dsp::simd::Level previous = dsp::simd::active_level();
  const auto max = static_cast<int>(dsp::simd::max_supported_level());
  std::vector<ml::FeatureVector> reference;
  for (int l = 0; l <= max; ++l) {
    const auto level = static_cast<dsp::simd::Level>(l);
    dsp::simd::set_level(level);
    SCOPED_TRACE(dsp::simd::level_name(level));
    sweep_orientation_chunks();
    sweep_verdict_chunks();
    const auto features = features_at_active_level();
    if (l == 0) {
      reference = features;
      continue;
    }
    ASSERT_EQ(features.size(), reference.size());
    for (std::size_t v = 0; v < features.size(); ++v) {
      ASSERT_EQ(features[v].size(), reference[v].size()) << "vector " << v;
      for (std::size_t i = 0; i < features[v].size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(features[v][i]),
                  std::bit_cast<std::uint64_t>(reference[v][i]))
            << "vector " << v << " feature " << i << ": " << features[v][i] << " vs "
            << reference[v][i];
      }
    }
  }
  dsp::simd::set_level(previous);
}

TEST(IncrementalEquivalence, PointerPushEqualsChunkPushAtEverySimdLevel) {
  // push(per-channel pointers, frames) is push(MultiBuffer)'s body: the
  // same splits — inside a 960-sample block, on its boundary, across
  // several blocks — give the same bits through either, at the scalar
  // reference and the host's best level.
  const std::vector<std::size_t> splits[] = {
      {1, 500, 959, 960, 961, 2500, 7000},  // split points, then the rest
      {960, 1920, 4800},
      {7, 14, 21, 11999},
  };
  const auto capture = make_segment_capture(4, 12000, audio::kDefaultSampleRate, /*seed=*/9);
  const IncrementalExtractorConfig config;
  const auto same_bits = [](const ml::FeatureVector& got, const ml::FeatureVector& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
          << "feature " << i;
    }
  };
  const dsp::simd::Level previous = dsp::simd::active_level();
  for (const auto level : {dsp::simd::Level::kScalar, dsp::simd::max_supported_level()}) {
    dsp::simd::set_level(level);
    SCOPED_TRACE(dsp::simd::level_name(level));
    for (const auto& points : splits) {
      IncrementalExtractor by_chunk;
      IncrementalExtractor by_pointer;
      by_chunk.begin(config, 4, capture.sample_rate());
      by_pointer.begin(config, 4, capture.sample_rate());
      std::size_t first = 0;
      for (std::size_t i = 0; i <= points.size(); ++i) {
        const std::size_t last = i < points.size() ? points[i] : capture.frames();
        std::vector<audio::Buffer> pieces;
        const audio::Sample* channels[4];
        for (std::size_t c = 0; c < 4; ++c) {
          pieces.push_back(capture.channel(c).slice(first, last - first));
          channels[c] = capture.channel(c).samples().data() + first;
        }
        by_chunk.push(audio::MultiBuffer(std::move(pieces)));
        by_pointer.push(channels, last - first);
        first = last;
      }
      EXPECT_EQ(by_pointer.samples_pushed(), capture.frames());
      EXPECT_EQ(by_pointer.blocks_accumulated(), by_chunk.blocks_accumulated());
      same_bits(by_pointer.finalize_orientation(), by_chunk.finalize_orientation());
      same_bits(by_pointer.finalize_liveness(), by_chunk.finalize_liveness());
    }
  }
  dsp::simd::set_level(previous);
}
