// Auto-endpoint streaming mode of the Session: STREAM_START handshake,
// server-side segmentation answering chunks with STREAM_DECISIONs, the
// END_OF_UTTERANCE ban while streaming, and the STREAM_END summary that
// returns the connection to per-utterance mode.
#include <cmath>
#include <limits>
#include <numbers>
#include <random>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "serve_test_util.h"

using namespace headtalk;
using namespace headtalk::serve;

namespace {

const core::HeadTalkPipeline& test_pipeline() {
  static const core::HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  return pipeline;
}

void feed(Session& session, const std::vector<std::uint8_t>& bytes, bool expect_alive) {
  EXPECT_EQ(session.on_bytes(bytes.data(), bytes.size()), expect_alive);
}

std::vector<Frame> drain(Session& session) {
  const auto bytes = session.take_output();
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  std::vector<Frame> frames;
  while (auto frame = reader.next()) frames.push_back(*std::move(frame));
  return frames;
}

/// Tight segmentation so short test bursts close quickly.
SessionLimits stream_limits() {
  SessionLimits limits;
  limits.mode = core::VaMode::kNormal;  // skips DSP: machinery-only tests
  limits.stream.endpoint.pre_roll_frames = 2;
  limits.stream.endpoint.onset_frames = 2;
  limits.stream.endpoint.hangover_frames = 4;
  limits.stream.endpoint.post_roll_frames = 2;
  limits.stream.endpoint.min_utterance_frames = 4;
  limits.stream.endpoint.max_utterance_frames = 200;
  return limits;
}

/// Interleaved harmonic burst: tonal (low spectral flatness) and loud, so
/// the VAD treats it as speech — unlike white noise, which it must not.
std::vector<float> speech_chunk(std::size_t frames, std::uint16_t channels,
                                double sample_rate = audio::kDefaultSampleRate) {
  std::vector<float> interleaved(frames * channels);
  for (std::size_t f = 0; f < frames; ++f) {
    const double t = static_cast<double>(f) / sample_rate;
    double v = 0.0;
    for (int h = 1; h <= 4; ++h) {
      v += 0.05 * std::sin(2.0 * std::numbers::pi * 220.0 * h * t);
    }
    for (std::uint16_t c = 0; c < channels; ++c) {
      interleaved[f * channels + c] = static_cast<float>(v);
    }
  }
  return interleaved;
}

std::vector<float> silence_chunk(std::size_t frames, std::uint16_t channels) {
  return std::vector<float>(frames * channels, 0.0f);
}

Session hello_session(SessionLimits limits, std::uint16_t channels = 4) {
  Session session(test_pipeline(), limits);
  Hello hello;
  hello.channels = channels;
  EXPECT_TRUE(session.on_bytes(encode_hello(hello).data(), encode_hello(hello).size()));
  (void)drain(session);
  return session;
}

}  // namespace

TEST(ServeStreamMode, StreamStartBeforeHelloFails) {
  Session session(test_pipeline(), stream_limits());
  feed(session, encode_stream_start(), false);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kBadRequest);
}

TEST(ServeStreamMode, StreamStartAdvertisesSegmentationGeometry) {
  Session session = hello_session(stream_limits());
  EXPECT_FALSE(session.stream_mode());
  feed(session, encode_stream_start(), true);
  EXPECT_TRUE(session.stream_mode());

  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  const StreamOk ok = parse_stream_ok(frames[0]);
  EXPECT_GT(ok.vad_frame_length, 0u);
  EXPECT_EQ(ok.max_segment_frames,
            session.limits().stream.endpoint.max_utterance_frames * ok.vad_frame_length);
}

TEST(ServeStreamMode, DuplicateStreamStartFails) {
  Session session = hello_session(stream_limits());
  feed(session, encode_stream_start(), true);
  (void)drain(session);
  feed(session, encode_stream_start(), false);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kBadRequest);
}

TEST(ServeStreamMode, EndOfUtteranceRejectedWhileStreaming) {
  Session session = hello_session(stream_limits());
  feed(session, encode_stream_start(), true);
  (void)drain(session);
  feed(session, encode_end_of_utterance(false), false);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kBadRequest);
}

TEST(ServeStreamMode, SpeechBurstYieldsOneStreamDecision) {
  Session session = hello_session(stream_limits());
  feed(session, encode_stream_start(), true);
  const auto ok = parse_stream_ok(drain(session).at(0));
  const std::size_t frame_len = ok.vad_frame_length;

  // ~30 VAD frames of tonal speech, then enough silence to close the
  // segment. The decision must arrive on the chunk that closes it.
  feed(session, encode_audio_chunk(speech_chunk(30 * frame_len, 4), 4), true);
  EXPECT_FALSE(session.idle());  // open segment: a drain must wait
  feed(session, encode_audio_chunk(silence_chunk(20 * frame_len, 4), 4), true);

  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  const StreamDecisionFrame decision = parse_stream_decision(frames[0]);
  EXPECT_GE(decision.begin_seconds, 0.0);
  EXPECT_GT(decision.end_seconds, decision.begin_seconds);
  EXPECT_FALSE(decision.force_closed);
  EXPECT_EQ(session.decisions_sent(), 1u);
  EXPECT_TRUE(session.idle());
}

TEST(ServeStreamMode, WhiteNoiseAloneNeverEndpoints) {
  Session session = hello_session(stream_limits());
  feed(session, encode_stream_start(), true);
  const auto ok = parse_stream_ok(drain(session).at(0));

  // Broadband noise is energetic but spectrally flat; the VAD's flatness
  // gate must keep it from opening segments.
  std::mt19937 rng(3);
  std::normal_distribution<double> g(0.0, 0.05);
  std::vector<float> noise(40 * ok.vad_frame_length * 4);
  for (auto& v : noise) v = static_cast<float>(g(rng));
  feed(session, encode_audio_chunk(noise, 4), true);
  feed(session, encode_stream_end(), true);

  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);  // just the summary, no decisions
  const StreamSummary summary = parse_stream_summary(frames[0]);
  EXPECT_EQ(summary.segments, 0u);
}

TEST(ServeStreamMode, StreamEndSummarizesAndReturnsToPerUtteranceMode) {
  Session session = hello_session(stream_limits());
  feed(session, encode_stream_start(), true);
  const auto ok = parse_stream_ok(drain(session).at(0));
  const std::size_t frame_len = ok.vad_frame_length;

  feed(session, encode_audio_chunk(speech_chunk(30 * frame_len, 4), 4), true);
  feed(session, encode_audio_chunk(silence_chunk(20 * frame_len, 4), 4), true);
  (void)drain(session);  // the STREAM_DECISION

  feed(session, encode_stream_end(), true);
  EXPECT_FALSE(session.stream_mode());
  auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  const StreamSummary summary = parse_stream_summary(frames[0]);
  EXPECT_EQ(summary.segments, 1u);
  EXPECT_EQ(summary.force_closed, 0u);
  EXPECT_EQ(summary.frames_streamed, 50u * frame_len);

  // Back in per-utterance mode the classic path must work unchanged.
  const auto capture = serve_test::make_capture(4, 24000);
  std::vector<float> interleaved(capture.frames() * 4);
  for (std::size_t f = 0; f < capture.frames(); ++f) {
    for (std::size_t c = 0; c < 4; ++c) {
      interleaved[f * 4 + c] = static_cast<float>(capture.channel(c)[f]);
    }
  }
  feed(session, encode_audio_chunk(interleaved, 4), true);
  feed(session, encode_end_of_utterance(false), true);
  frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kDecision);
}

TEST(ServeStreamMode, NonFiniteSampleMidChunkFeedsNothingToTheDetector) {
  // A streaming chunk is decoded whole before the detector sees any of it:
  // a NaN halfway through ends the connection with ERROR bad-request, and
  // the detector keeps the frames of the chunks before it and nothing more.
  Session session = hello_session(stream_limits());
  feed(session, encode_stream_start(), true);
  const std::size_t frame_len = parse_stream_ok(drain(session).at(0)).vad_frame_length;
  const auto speech = speech_chunk(30 * frame_len, 4);
  feed(session, encode_audio_chunk(speech, 4), true);
  EXPECT_EQ(session.stream_frames(), 30u * frame_len);

  auto poisoned = speech;
  poisoned[poisoned.size() / 2 + 1] = std::numeric_limits<float>::quiet_NaN();
  feed(session, encode_audio_chunk(poisoned, 4), false);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kError);
  EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kBadRequest);
  EXPECT_EQ(session.stream_frames(), 30u * frame_len);
  EXPECT_EQ(session.decisions_sent(), 0u);

  // The sample check comes before the size check: an oversized chunk with
  // a bad sample is a bad request, not too large.
  SessionLimits small = stream_limits();
  small.max_chunk_frames = static_cast<std::uint32_t>(frame_len);
  Session strict = hello_session(small);
  feed(strict, encode_stream_start(), true);
  (void)drain(strict);
  feed(strict, encode_audio_chunk(poisoned, 4), false);
  const auto refused = drain(strict);
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_EQ(parse_error(refused[0]).code, ErrorCode::kBadRequest);
  EXPECT_EQ(strict.stream_frames(), 0u);
}

TEST(ServeStreamMode, StreamTimersCountChunksAndVadFrames) {
  // serve.stream_chunk_seconds takes one observation per streaming
  // AUDIO_CHUNK, stream.vad_seconds one per classified VAD frame, whatever
  // the chunk sizes; both use the pipeline stage buckets.
  obs::Histogram& chunk_seconds = core::pipeline_stage_histogram("serve.stream_chunk_seconds");
  obs::Histogram& vad_seconds = core::pipeline_stage_histogram("stream.vad_seconds");
  Session session = hello_session(stream_limits());
  feed(session, encode_stream_start(), true);
  const std::size_t frame_len = parse_stream_ok(drain(session).at(0)).vad_frame_length;

  const std::uint64_t chunks_before = chunk_seconds.count();
  const std::uint64_t frames_before = vad_seconds.count();
  std::size_t chunks = 0;
  std::size_t frames = 0;
  for (const std::size_t size : {frame_len, frame_len / 3, 5 * frame_len + 17, frame_len,
                                 20 * frame_len, 7 * frame_len - 17}) {
    const auto samples = chunks % 2 == 0 ? speech_chunk(size, 4) : silence_chunk(size, 4);
    feed(session, encode_audio_chunk(samples, 4), true);
    ++chunks;
    frames += size;
  }
  EXPECT_EQ(chunk_seconds.count() - chunks_before, chunks);
  EXPECT_EQ(vad_seconds.count() - frames_before, frames / frame_len);
  EXPECT_EQ(session.stream_frames(), frames);
}

TEST(ServeStreamMode, StreamEndOutsideStreamModeFails) {
  Session session = hello_session(stream_limits());
  feed(session, encode_stream_end(), false);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kBadRequest);
}

TEST(ServeStreamMode, ClientSentServerOnlyStreamFramesFail) {
  Session session = hello_session(stream_limits());
  feed(session, encode_stream_ok(StreamOk{960, 1000}), false);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kBadRequest);
}
