// Session state machine: handshake ordering, limit enforcement, ring
// accumulation, and per-connection HeadTalk session tracking — all without
// a socket in sight.
#include "serve/session.h"

#include <gtest/gtest.h>

#include <limits>

#include "serve/protocol.h"
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

SessionLimits normal_mode_limits() {
  SessionLimits limits;
  limits.mode = core::VaMode::kNormal;  // skips DSP: machinery-only tests
  return limits;
}

TEST(ServeSampleRing, AccumulatesAndDropsOldest) {
  SampleRing ring;
  ring.reset(2, 4, 48000.0);
  EXPECT_EQ(ring.frames(), 0u);

  // Frames are numbered through channel 0 so ordering is observable.
  const auto frame_values = [](float first, std::size_t count) {
    std::vector<float> interleaved;
    for (std::size_t f = 0; f < count; ++f) {
      interleaved.push_back(first + static_cast<float>(f));  // channel 0
      interleaved.push_back(0.0f);                           // channel 1
    }
    return interleaved;
  };

  ring.append(frame_values(0.0f, 3));
  EXPECT_EQ(ring.frames(), 3u);
  EXPECT_EQ(ring.dropped_frames(), 0u);

  ring.append(frame_values(3.0f, 3));  // frames 3,4,5: drops frames 0,1
  EXPECT_EQ(ring.frames(), 4u);
  EXPECT_EQ(ring.dropped_frames(), 2u);

  const audio::MultiBuffer capture = ring.snapshot();
  ASSERT_EQ(capture.frames(), 4u);
  EXPECT_DOUBLE_EQ(capture.channel(0)[0], 2.0);  // oldest surviving frame
  EXPECT_DOUBLE_EQ(capture.channel(0)[3], 5.0);
  EXPECT_DOUBLE_EQ(capture.sample_rate(), 48000.0);

  ring.clear();
  EXPECT_EQ(ring.frames(), 0u);
  EXPECT_EQ(ring.dropped_frames(), 0u);
  EXPECT_EQ(ring.capacity_frames(), 4u);
}

TEST(ServeSampleRing, OversizedAppendKeepsTail) {
  SampleRing ring;
  ring.reset(1, 3, 48000.0);
  std::vector<float> interleaved{1, 2, 3, 4, 5};
  ring.append(interleaved);
  EXPECT_EQ(ring.frames(), 3u);
  EXPECT_EQ(ring.dropped_frames(), 2u);
  const auto capture = ring.snapshot();
  EXPECT_DOUBLE_EQ(capture.channel(0)[0], 3.0);
  EXPECT_DOUBLE_EQ(capture.channel(0)[2], 5.0);
}

TEST(ServeSampleRing, OversizedAppendAfterWrapAroundKeepsNewestCapacityFrames) {
  // Regression: an oversized append landing on a ring whose head has
  // already wrapped must still leave exactly the newest `capacity` frames,
  // and dropped_frames() must count both the skipped chunk head and every
  // overwritten resident frame.
  SampleRing ring;
  ring.reset(1, 3, 48000.0);
  ring.append(std::vector<float>{1, 2});
  ring.append(std::vector<float>{3, 4});  // wraps: keeps 2,3,4 and drops 1
  EXPECT_EQ(ring.frames(), 3u);
  EXPECT_EQ(ring.dropped_frames(), 1u);

  ring.append(std::vector<float>{5, 6, 7, 8, 9});  // 5 frames into capacity 3
  EXPECT_EQ(ring.frames(), 3u);
  // 1 from before + 2 skipped at the chunk head (5,6) + 3 overwritten (2,3,4).
  EXPECT_EQ(ring.dropped_frames(), 6u);
  const auto capture = ring.snapshot();
  ASSERT_EQ(capture.frames(), 3u);
  EXPECT_DOUBLE_EQ(capture.channel(0)[0], 7.0);
  EXPECT_DOUBLE_EQ(capture.channel(0)[1], 8.0);
  EXPECT_DOUBLE_EQ(capture.channel(0)[2], 9.0);
}

TEST(ServeSession, HelloHandshakeAdvertisesLimits) {
  Session session(test_pipeline(), normal_mode_limits());
  EXPECT_FALSE(session.hello_done());
  feed(session, encode_hello(Hello{}), true);
  EXPECT_TRUE(session.hello_done());

  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  const HelloOk ok = parse_hello_ok(frames[0]);
  EXPECT_EQ(ok.protocol_version, kProtocolVersion);
  EXPECT_EQ(ok.max_chunk_frames, session.limits().max_chunk_frames);
  EXPECT_EQ(ok.max_utterance_frames, session.limits().max_utterance_frames);
}

TEST(ServeSession, ChunkBeforeHelloFails) {
  Session session(test_pipeline(), normal_mode_limits());
  feed(session, encode_audio_chunk(std::vector<float>(16, 0.1f), 4), false);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kBadRequest);
  EXPECT_TRUE(session.finished());
}

TEST(ServeSession, UnsupportedVersionFails) {
  Session session(test_pipeline(), normal_mode_limits());
  Hello hello;
  hello.protocol_version = 42;
  feed(session, encode_hello(hello), false);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kUnsupportedVersion);
}

TEST(ServeSession, TooManyChannelsFails) {
  SessionLimits limits = normal_mode_limits();
  limits.max_channels = 4;
  Session session(test_pipeline(), limits);
  Hello hello;
  hello.channels = 8;
  feed(session, encode_hello(hello), false);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kTooLarge);
}

TEST(ServeSession, OversizedChunkFails) {
  SessionLimits limits = normal_mode_limits();
  limits.max_chunk_frames = 8;
  Session session(test_pipeline(), limits);
  feed(session, encode_hello(Hello{}), true);
  (void)drain(session);
  feed(session, encode_audio_chunk(std::vector<float>(16 * 4, 0.1f), 4), false);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kTooLarge);
}

TEST(ServeSession, EndOfUtteranceWithoutAudioFails) {
  Session session(test_pipeline(), normal_mode_limits());
  feed(session, encode_hello(Hello{}), true);
  (void)drain(session);
  feed(session, encode_end_of_utterance(false), false);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kBadRequest);
}

TEST(ServeSession, ServerOnlyFrameFromClientFails) {
  Session session(test_pipeline(), normal_mode_limits());
  feed(session, encode_hello(Hello{}), true);
  (void)drain(session);
  feed(session, encode_busy(), false);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kBadRequest);
}

TEST(ServeSession, MalformedBytesFail) {
  Session session(test_pipeline(), normal_mode_limits());
  const std::vector<std::uint8_t> garbage(16, 0xee);
  EXPECT_FALSE(session.on_bytes(garbage.data(), garbage.size()));
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kBadRequest);
}

TEST(ServeSession, NonFiniteSampleIsABadRequest) {
  // A NaN mid-utterance ends the connection with a typed ERROR instead of
  // reaching the pipeline: no DECISION, and nothing after it is processed.
  Session session(test_pipeline(), normal_mode_limits());
  feed(session, encode_hello(Hello{}), true);
  (void)drain(session);
  feed(session, encode_audio_chunk(std::vector<float>(480 * 4, 0.1f), 4), true);
  std::vector<float> poisoned(480 * 4, 0.1f);
  poisoned[7] = std::numeric_limits<float>::quiet_NaN();
  feed(session, encode_audio_chunk(poisoned, 4), false);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kError);
  EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kBadRequest);
  EXPECT_TRUE(session.finished());

  feed(session, encode_end_of_utterance(false), false);
  EXPECT_TRUE(drain(session).empty());
  EXPECT_EQ(session.decisions_sent(), 0u);
}

TEST(ServeSession, ScoresUtterancesBackToBack) {
  Session session(test_pipeline(), normal_mode_limits());
  std::vector<std::uint8_t> stream = encode_hello(Hello{});
  const auto chunk = encode_audio_chunk(std::vector<float>(480 * 4, 0.1f), 4);
  const auto end = encode_end_of_utterance(false);
  for (int u = 0; u < 3; ++u) {
    stream.insert(stream.end(), chunk.begin(), chunk.end());
    stream.insert(stream.end(), end.begin(), end.end());
  }
  // Everything in one write: frames must be processed in order.
  feed(session, stream, true);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, FrameType::kHelloOk);
  for (int u = 1; u <= 3; ++u) {
    const DecisionFrame decision = parse_decision(frames[static_cast<std::size_t>(u)]);
    EXPECT_EQ(decision.decision,
              static_cast<std::uint8_t>(core::Decision::kAccepted));
  }
  EXPECT_EQ(session.decisions_sent(), 3u);
  EXPECT_FALSE(session.finished());
}

TEST(ServeSession, HeadTalkModeScoresRealCaptures) {
  // Full-DSP path: one real utterance through preprocess + both detectors.
  SessionLimits limits;  // default kHeadTalk
  Session session(test_pipeline(), limits);
  feed(session, encode_hello(Hello{}), true);
  (void)drain(session);

  const auto capture = serve_test::make_capture(4, 24000);
  std::vector<float> interleaved(capture.frames() * 4);
  for (std::size_t f = 0; f < capture.frames(); ++f) {
    for (std::size_t c = 0; c < 4; ++c) {
      interleaved[f * 4 + c] = static_cast<float>(capture.channel(c)[f]);
    }
  }
  feed(session, encode_audio_chunk(interleaved, 4), true);
  feed(session, encode_end_of_utterance(false), true);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  const DecisionFrame decision = parse_decision(frames[0]);
  // The verdict depends on the synthetic models; the contract is that a
  // decision came back with the liveness stage populated.
  EXPECT_LE(decision.decision, 3);
  EXPECT_GE(decision.elapsed_seconds, 0.0);
  EXPECT_EQ(session.decisions_sent(), 1u);
}

}  // namespace
