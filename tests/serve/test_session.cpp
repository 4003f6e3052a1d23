// Session state machine: handshake ordering, limit enforcement, per-chunk
// accumulation, and per-connection HeadTalk session tracking — all without
// a socket in sight.
#include "serve/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <span>
#include <string>

#include "core/scoring_workspace.h"
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

TEST(ServeSession, UtteranceOverLimitIsTooLarge) {
  // max_utterance_frames is a hard limit: the chunk that takes the
  // utterance past it ends the connection with ERROR too-large, and nothing
  // is scored — no forced finalize, no dropping the oldest frames.
  SessionLimits limits = normal_mode_limits();
  limits.max_utterance_frames = 1000;
  const auto chunk = [](std::size_t frames) {
    return encode_audio_chunk(std::vector<float>(frames * 4, 0.1f), 4);
  };
  {
    Session session(test_pipeline(), limits);
    feed(session, encode_hello(Hello{}), true);
    (void)drain(session);
    feed(session, chunk(600), true);
    EXPECT_FALSE(session.idle());
    feed(session, chunk(600), false);
    feed(session, encode_end_of_utterance(false), false);
    const auto frames = drain(session);
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].type, FrameType::kError);
    EXPECT_EQ(parse_error(frames[0]).code, ErrorCode::kTooLarge);
    EXPECT_EQ(session.decisions_sent(), 0u);
  }
  {
    // Exactly at the limit is fine, and the count restarts per utterance.
    Session session(test_pipeline(), limits);
    feed(session, encode_hello(Hello{}), true);
    (void)drain(session);
    for (int u = 0; u < 2; ++u) {
      feed(session, chunk(600), true);
      feed(session, chunk(400), true);
      feed(session, encode_end_of_utterance(false), true);
      EXPECT_TRUE(session.idle());
    }
    EXPECT_EQ(session.decisions_sent(), 2u);
  }
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
  // Full-DSP path: each AUDIO_CHUNK is accumulated as it arrives and
  // END_OF_UTTERANCE only finalizes. However the client splits the
  // utterance, the verdict must equal score_capture on the same samples
  // rounded to f32 (the wire format) — as a plain utterance, and as a
  // follow-up while the session that utterance opened is still open.
  const auto capture = serve_test::make_capture(4, 24000);
  const std::size_t frames = capture.frames();
  audio::MultiBuffer wire(4, frames, capture.sample_rate());
  std::vector<float> interleaved(frames * 4);
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t f = 0; f < frames; ++f) {
      const float sample = static_cast<float>(capture.channel(c)[f]);
      wire.channel(c)[f] = sample;
      interleaved[f * 4 + c] = sample;
    }
  }
  const core::PipelineResult plain = test_pipeline().score_capture(
      wire, core::VaMode::kHeadTalk, /*followup=*/false, /*session_active=*/false);
  ASSERT_TRUE(plain.session_open_after) << "the fixture must open a session";
  const core::PipelineResult followup = test_pipeline().score_capture(
      wire, core::VaMode::kHeadTalk, /*followup=*/true, /*session_active=*/true);
  const core::PipelineResult* expected[] = {&plain, &followup};

  core::ScoringWorkspace workspace;
  const std::size_t chunk_sizes[] = {1, 480, 4800, frames};
  for (std::size_t i = 0; i < std::size(chunk_sizes); ++i) {
    const std::size_t chunk_frames = chunk_sizes[i];
    SCOPED_TRACE("chunks of " + std::to_string(chunk_frames) + " frames");
    Session session(test_pipeline(), SessionLimits{});  // default kHeadTalk
    // Every other run accumulates in a worker's workspace instead of the
    // session's own operator.
    if (i % 2 == 1) session.set_workspace(&workspace);
    std::vector<std::uint8_t> bytes = encode_hello(Hello{});
    for (const bool is_followup : {false, true}) {
      for (std::size_t begin = 0; begin < frames; begin += chunk_frames) {
        const std::size_t n = std::min(chunk_frames, frames - begin);
        const auto chunk = encode_audio_chunk(
            std::span<const float>(interleaved.data() + begin * 4, n * 4), 4);
        bytes.insert(bytes.end(), chunk.begin(), chunk.end());
      }
      const auto end = encode_end_of_utterance(is_followup);
      bytes.insert(bytes.end(), end.begin(), end.end());
    }
    feed(session, bytes, true);
    const auto replies = drain(session);
    ASSERT_EQ(replies.size(), 3u);  // HELLO_OK + one DECISION per utterance
    for (std::size_t u = 0; u < 2; ++u) {
      const DecisionFrame decision = parse_decision(replies[u + 1]);
      EXPECT_EQ(decision.decision, static_cast<std::uint8_t>(expected[u]->decision));
      EXPECT_EQ(decision.via_open_session, expected[u]->via_open_session);
      EXPECT_DOUBLE_EQ(decision.liveness_score, expected[u]->liveness_score);
      EXPECT_DOUBLE_EQ(decision.orientation_score, expected[u]->orientation_score);
      EXPECT_GE(decision.elapsed_seconds, 0.0);
    }
    EXPECT_TRUE(session.idle());
  }
}

TEST(ServeSession, HeadTalkModeRefusesRateWithoutLivenessPath) {
  // 44.1 and 8 kHz are not whole multiples of the 16 kHz liveness rate:
  // HELLO itself is refused, before HELLO_OK and before any audio.
  for (const std::uint32_t rate : {44100u, 8000u}) {
    SCOPED_TRACE(std::to_string(rate) + " Hz");
    Session session(test_pipeline(), SessionLimits{});  // default kHeadTalk
    Hello hello;
    hello.sample_rate_hz = rate;
    feed(session, encode_hello(hello), false);
    const auto frames = drain(session);
    ASSERT_EQ(frames.size(), 1u);
    const ErrorFrame error = parse_error(frames[0]);
    EXPECT_EQ(error.code, ErrorCode::kBadRequest);
    EXPECT_NE(error.message.find(std::to_string(rate)), std::string::npos) << error.message;
    EXPECT_NE(error.message.find("16000 Hz liveness rate"), std::string::npos)
        << error.message;
    EXPECT_FALSE(session.hello_done());
    EXPECT_TRUE(session.finished());
  }
}

TEST(ServeSession, NormalModeAcceptsAnyRate) {
  // Normal and Mute verdicts never feed the operator, so no rate rule.
  Session session(test_pipeline(), normal_mode_limits());
  Hello hello;
  hello.sample_rate_hz = 44100;
  std::vector<std::uint8_t> bytes = encode_hello(hello);
  const auto chunk = encode_audio_chunk(std::vector<float>(441 * 4, 0.1f), 4);
  const auto end = encode_end_of_utterance(false);
  bytes.insert(bytes.end(), chunk.begin(), chunk.end());
  bytes.insert(bytes.end(), end.begin(), end.end());
  feed(session, bytes, true);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kHelloOk);
  EXPECT_EQ(parse_decision(frames[1]).decision,
            static_cast<std::uint8_t>(core::Decision::kAccepted));
}

TEST(ServeSession, HeadTalkModeAccepts96kHz) {
  // 96 kHz decimates by 6 to the liveness rate: HELLO_OK, and every chunk
  // of the utterance accumulates in the operator without an error.
  Session session(test_pipeline(), SessionLimits{});  // default kHeadTalk
  Hello hello;
  hello.sample_rate_hz = 96000;
  std::vector<std::uint8_t> bytes = encode_hello(hello);
  const auto capture = serve_test::make_capture(4, 9600);
  std::vector<float> interleaved(capture.frames() * 4);
  for (std::size_t f = 0; f < capture.frames(); ++f) {
    for (std::size_t c = 0; c < 4; ++c) {
      interleaved[f * 4 + c] = static_cast<float>(capture.channel(c)[f]);
    }
  }
  for (int i = 0; i < 3; ++i) {
    const auto chunk = encode_audio_chunk(interleaved, 4);
    bytes.insert(bytes.end(), chunk.begin(), chunk.end());
  }
  feed(session, bytes, true);
  const auto frames = drain(session);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kHelloOk);
  EXPECT_TRUE(session.hello_done());
  EXPECT_FALSE(session.idle());  // the utterance is in flight, not refused
}

}  // namespace
