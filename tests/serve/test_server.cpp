// End-to-end daemon tests over real Unix sockets: concurrent-client
// stress (every client gets exactly one well-formed DECISION), BUSY
// backpressure when the pending queue is full, graceful drain that still
// answers the in-flight utterance, per-utterance deadline expiry, verdict
// parity with in-process scoring, pipelined and byte-at-a-time delivery,
// AUTH'd and streaming connections, and what serve.request_seconds times.
#include "serve/server.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/client.h"
#include "serve_test_util.h"
#include "tenant/enrollment.h"
#include "tenant/service.h"

using namespace headtalk;
using namespace headtalk::serve;

namespace {

const core::HeadTalkPipeline& test_pipeline() {
  static const core::HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  return pipeline;
}

std::filesystem::path test_socket_path(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("headtalk_test_" + std::to_string(::getpid()) + "_" + tag + ".sock");
}

ServerConfig normal_mode_config(const std::string& tag) {
  ServerConfig config;
  config.socket_path = test_socket_path(tag);
  config.session.mode = core::VaMode::kNormal;  // skip DSP: machinery tests
  config.request_deadline_ms = 60000;
  return config;
}

/// One whole utterance as the wire carries it: AUDIO_CHUNK (f32 samples)
/// followed by END_OF_UTTERANCE.
std::vector<std::uint8_t> utterance_bytes(const audio::MultiBuffer& capture,
                                          bool followup = false) {
  const std::size_t channels = capture.channel_count();
  std::vector<float> interleaved(capture.frames() * channels);
  for (std::size_t f = 0; f < capture.frames(); ++f) {
    for (std::size_t c = 0; c < channels; ++c) {
      interleaved[f * channels + c] = static_cast<float>(capture.channel(c)[f]);
    }
  }
  auto bytes = encode_audio_chunk(interleaved, static_cast<std::uint16_t>(channels));
  const auto end = encode_end_of_utterance(followup);
  bytes.insert(bytes.end(), end.begin(), end.end());
  return bytes;
}

/// Polls `predicate` until it holds or ~5 s pass.
template <typename Predicate>
bool eventually(Predicate predicate) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

TEST(ServeServer, StressManyConcurrentClientsOneDecisionEach) {
  constexpr unsigned kClients = 64;
  ServerConfig config = normal_mode_config("stress");
  config.max_pending = 2 * kClients;
  Server server(test_pipeline(), config);
  server.start();

  const auto capture = serve_test::make_capture(4, 1024);
  std::atomic<unsigned> decisions{0};
  std::vector<std::string> failures(kClients);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (unsigned i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        try {
          auto client = BlockingClient::connect_unix(config.socket_path);
          (void)client.hello();
          const DecisionFrame decision = client.score(capture);
          // kNormal mode accepts everything without scoring.
          if (decision.decision != static_cast<std::uint8_t>(core::Decision::kAccepted)) {
            throw std::runtime_error("unexpected decision");
          }
          ++decisions;
          // No unsolicited frames follow the decision.
          EXPECT_THROW((void)client.read_frame(50), ClientError);
        } catch (const std::exception& error) {
          failures[i] = error.what();
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

  for (unsigned i = 0; i < kClients; ++i) {
    EXPECT_EQ(failures[i], "") << "client " << i;
  }
  EXPECT_EQ(decisions.load(), kClients);
  server.stop();  // joins the workers, so the counters below are final
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.decisions, kClients);
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.busy_rejections, 0u);
}

TEST(ServeServer, BusyWhenPendingQueueFull) {
  ServerConfig config = normal_mode_config("busy");
  config.workers = 1;
  config.max_pending = 1;
  Server server(test_pipeline(), config);
  server.start();

  // A occupies the only worker (handshake done means the worker popped it).
  auto a = BlockingClient::connect_unix(config.socket_path);
  (void)a.hello();
  ASSERT_TRUE(eventually([&] { return server.stats().active_connections == 1; }));

  // B fills the single pending slot.
  auto b = BlockingClient::connect_unix(config.socket_path);
  ASSERT_TRUE(eventually([&] { return server.stats().connections_accepted == 2; }));

  // C overflows: the acceptor answers BUSY and closes without a worker.
  auto c = BlockingClient::connect_unix(config.socket_path);
  const Frame reply = c.read_frame(5000);
  EXPECT_EQ(reply.type, FrameType::kBusy);
  EXPECT_TRUE(eventually([&] { return server.stats().busy_rejections == 1; }));

  // Releasing A lets the worker serve B: overload was a fast reject for C
  // only, not a dropped or wedged B.
  a.close();
  (void)b.hello();
  const auto capture = serve_test::make_capture(4, 512);
  const DecisionFrame decision = b.score(capture);
  EXPECT_EQ(decision.decision, static_cast<std::uint8_t>(core::Decision::kAccepted));
  server.stop();
  EXPECT_EQ(server.stats().busy_rejections, 1u);
}

TEST(ServeServer, GracefulStopAnswersInFlightUtterance) {
  ServerConfig config = normal_mode_config("drain");
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
  (void)client.hello();
  // Everything but the trailing END_OF_UTTERANCE goes out first.
  const auto bytes = utterance_bytes(serve_test::make_capture(4, 512));
  const std::size_t end_size = encode_end_of_utterance(false).size();
  client.send_bytes(bytes.data(), bytes.size() - end_size);

  // Stop lands mid-utterance; the drain must still deliver this DECISION.
  server.request_stop();
  client.send_bytes(bytes.data() + bytes.size() - end_size, end_size);
  const Frame reply = client.read_frame(10000);
  EXPECT_EQ(reply.type, FrameType::kDecision);
  const DecisionFrame decision = parse_decision(reply);
  EXPECT_EQ(decision.decision, static_cast<std::uint8_t>(core::Decision::kAccepted));

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().decisions, 1u);
  // The socket file is gone; new connections are refused, not queued.
  EXPECT_FALSE(std::filesystem::exists(config.socket_path));
  EXPECT_THROW((void)BlockingClient::connect_unix(config.socket_path), ClientError);
}

TEST(ServeServer, DeadlineExpiryReturnsErrorAndCloses) {
  ServerConfig config = normal_mode_config("deadline");
  config.request_deadline_ms = 100;
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
  (void)client.hello();
  // Send nothing further: the utterance deadline expires on the server.
  const Frame reply = client.read_frame(5000);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(parse_error(reply).code, ErrorCode::kDeadlineExceeded);
  // The server closes after the error; the next read sees EOF.
  EXPECT_THROW((void)client.read_frame(5000), ClientError);
  EXPECT_TRUE(eventually([&] { return server.stats().deadline_expirations == 1; }));
  server.stop();
}

TEST(ServeServer, MalformedBytesGetErrorFrame) {
  ServerConfig config = normal_mode_config("garbage");
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
  const std::vector<std::uint8_t> garbage(64, 0xee);
  client.send_bytes(garbage.data(), garbage.size());
  const Frame reply = client.read_frame(5000);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(parse_error(reply).code, ErrorCode::kBadRequest);
  EXPECT_TRUE(eventually([&] { return server.stats().session_errors == 1; }));
  server.stop();
}

TEST(ServeServer, HeadTalkModeScoresConcurrently) {
  // Full-DSP scoring from several clients at once: exercises the shared
  // const pipeline under real concurrency (the TSan target for this file).
  constexpr unsigned kClients = 8;
  ServerConfig config;
  config.socket_path = test_socket_path("headtalk");
  config.request_deadline_ms = 120000;  // scoring on a loaded 1-CPU host
  Server server(test_pipeline(), config);
  server.start();

  const auto capture = serve_test::make_capture(4, 24000);
  std::vector<std::string> failures(kClients);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (unsigned i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        try {
          auto client = BlockingClient::connect_unix(config.socket_path);
          (void)client.hello();
          const DecisionFrame decision = client.score(capture);
          if (decision.decision > 3) throw std::runtime_error("bad decision code");
        } catch (const std::exception& error) {
          failures[i] = error.what();
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (unsigned i = 0; i < kClients; ++i) {
    EXPECT_EQ(failures[i], "") << "client " << i;
  }
  server.stop();
  EXPECT_EQ(server.stats().decisions, kClients);
}

TEST(ServeServer, TcpLoopbackListenerServes) {
  ServerConfig config = normal_mode_config("tcp");
  config.tcp_port = 20000 + static_cast<int>(::getpid() % 20000);
  Server server(test_pipeline(), config);
  try {
    server.start();
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "port " << config.tcp_port << " unavailable";
  }

  auto client = BlockingClient::connect_tcp(config.tcp_port);
  (void)client.hello();
  const auto capture = serve_test::make_capture(4, 512);
  const DecisionFrame decision = client.score(capture);
  EXPECT_EQ(decision.decision, static_cast<std::uint8_t>(core::Decision::kAccepted));
  server.stop();
}

TEST(ServeServer, StopIsIdempotentAndRestartFails) {
  ServerConfig config = normal_mode_config("stop2");
  Server server(test_pipeline(), config);
  server.start();
  EXPECT_TRUE(server.running());
  server.stop();
  server.stop();  // second call is a no-op
  EXPECT_FALSE(server.running());
  EXPECT_THROW(server.start(), std::runtime_error);
}

TEST(ServeServer, RequestSecondsStartsAtTheUtterancesFirstBytes) {
  // serve.request_seconds times serving work, from the first bytes of an
  // utterance to its DECISION. The client's 300 ms of think time after
  // HELLO is not part of the request.
  obs::Histogram& request_seconds =
      obs::Registry::global().histogram("serve.request_seconds");
  ServerConfig config = normal_mode_config("request_seconds");
  Server server(test_pipeline(), config);
  server.start();
  const std::uint64_t count_before = request_seconds.count();
  const double sum_before = request_seconds.sum();

  auto client = BlockingClient::connect_unix(config.socket_path);
  (void)client.hello();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const DecisionFrame decision = client.score(serve_test::make_capture(4, 512));
  EXPECT_EQ(decision.decision, static_cast<std::uint8_t>(core::Decision::kAccepted));
  server.stop();  // joins the worker, so its observation has landed

  EXPECT_EQ(request_seconds.count(), count_before + 1);
  EXPECT_LT(request_seconds.sum() - sum_before, 0.1);
}

TEST(ServeServer, VerdictMatchesInProcessScoring) {
  // Full-DSP scoring over the socket must equal score_capture on the same
  // samples: the wire carries f32, so the reference is rounded the same way.
  const auto capture = serve_test::make_capture(4, 24000);
  audio::MultiBuffer wire(capture.channel_count(), capture.frames(), capture.sample_rate());
  for (std::size_t c = 0; c < capture.channel_count(); ++c) {
    for (std::size_t f = 0; f < capture.frames(); ++f) {
      wire.channel(c)[f] = static_cast<float>(capture.channel(c)[f]);
    }
  }
  const core::PipelineResult expected = test_pipeline().score_capture(
      wire, core::VaMode::kHeadTalk, /*followup=*/false, /*session_active=*/false);

  ServerConfig config;
  config.socket_path = test_socket_path("parity");
  config.request_deadline_ms = 120000;
  Server server(test_pipeline(), config);
  server.start();
  auto client = BlockingClient::connect_unix(config.socket_path);
  (void)client.hello();
  const DecisionFrame actual = client.score(capture);
  server.stop();

  EXPECT_EQ(actual.decision, static_cast<std::uint8_t>(expected.decision));
  EXPECT_DOUBLE_EQ(actual.liveness_score, expected.liveness_score);
  EXPECT_DOUBLE_EQ(actual.orientation_score, expected.orientation_score);
}

TEST(ServeServer, PipelinedUtterancesAnswerInOrder) {
  // Three utterances in one write, before any DECISION is read: the worker
  // answers each in order and sends nothing unsolicited after the last.
  ServerConfig config = normal_mode_config("pipelined");
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
  (void)client.hello();
  const auto capture = serve_test::make_capture(4, 256);
  std::vector<std::uint8_t> bytes;
  for (int u = 0; u < 3; ++u) {
    const auto utterance = utterance_bytes(capture, /*followup=*/u > 0);
    bytes.insert(bytes.end(), utterance.begin(), utterance.end());
  }
  client.send_bytes(bytes.data(), bytes.size());
  for (int u = 0; u < 3; ++u) {
    const Frame reply = client.read_frame(5000);
    ASSERT_EQ(reply.type, FrameType::kDecision) << "utterance " << u;
    EXPECT_EQ(parse_decision(reply).decision,
              static_cast<std::uint8_t>(core::Decision::kAccepted));
  }
  EXPECT_THROW((void)client.read_frame(50), ClientError);
  server.stop();
  EXPECT_EQ(server.stats().decisions, 3u);
}

TEST(ServeServer, OneByteAtATimeDelivery) {
  // Frames trickle in one byte per send, so every partial-read resume
  // point of the FrameReader/Session state machine is exercised through
  // the worker's recv loop.
  ServerConfig config = normal_mode_config("bytewise");
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
  std::vector<std::uint8_t> bytes = encode_hello({});
  const auto utterance = utterance_bytes(serve_test::make_capture(4, 64));
  bytes.insert(bytes.end(), utterance.begin(), utterance.end());
  for (const std::uint8_t byte : bytes) client.send_bytes(&byte, 1);

  EXPECT_EQ(client.read_frame(5000).type, FrameType::kHelloOk);
  const Frame reply = client.read_frame(5000);
  ASSERT_EQ(reply.type, FrameType::kDecision);
  EXPECT_EQ(parse_decision(reply).decision,
            static_cast<std::uint8_t>(core::Decision::kAccepted));
  server.stop();
  EXPECT_EQ(server.stats().decisions, 1u);
}

TEST(ServeServer, AuthAndPolicyThroughServer) {
  tenant::TenantService service(std::filesystem::path(::testing::TempDir()) /
                                ("server_tenants_" + std::to_string(::getpid())));
  {
    std::vector<core::FeatureCapture> features(3);
    for (auto& capture : features) capture.liveness.assign(6, 1.0);
    tenant::EnrollmentConfig enroll;
    enroll.rule = tenant::PolicyRule::kAny;
    service.store().publish(tenant::enroll_from_features(features, "anna", enroll));
    service.reload();
  }

  ServerConfig config = normal_mode_config("auth");
  config.session.tenants = &service;
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
  (void)client.hello();
  EXPECT_FALSE(client.auth("nobody").accepted);
  ASSERT_TRUE(client.auth("anna").accepted);
  const DecisionFrame decision = client.score(serve_test::make_capture(4, 256));
  EXPECT_TRUE(decision.policy_applied);
  EXPECT_TRUE(decision.policy_allowed);  // kAny allows everything
  server.stop();
}

TEST(ServeServer, StreamingModeEndpointsThroughServer) {
  ServerConfig config = normal_mode_config("stream");
  config.session.stream.endpoint.pre_roll_frames = 2;
  config.session.stream.endpoint.onset_frames = 2;
  config.session.stream.endpoint.hangover_frames = 4;
  config.session.stream.endpoint.post_roll_frames = 2;
  config.session.stream.endpoint.min_utterance_frames = 4;
  config.session.stream.endpoint.max_utterance_frames = 200;
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
  (void)client.hello();
  const StreamOk ok = client.start_stream();
  ASSERT_GT(ok.vad_frame_length, 0u);

  // Tonal burst (the VAD's idea of speech — white noise is gated out)
  // followed by silence long enough to close the segment.
  const std::size_t tone_frames = 30 * ok.vad_frame_length;
  const std::size_t total_frames = tone_frames + 20 * ok.vad_frame_length;
  audio::MultiBuffer scene(4, total_frames, audio::kDefaultSampleRate);
  for (std::size_t f = 0; f < tone_frames; ++f) {
    const double t = static_cast<double>(f) / audio::kDefaultSampleRate;
    double v = 0.0;
    for (int h = 1; h <= 4; ++h) {
      v += 0.05 * std::sin(2.0 * std::numbers::pi * 220.0 * h * t);
    }
    for (std::size_t c = 0; c < 4; ++c) scene.channel(c)[f] = v;
  }

  std::vector<StreamDecisionFrame> decisions;
  client.stream_audio(scene, decisions, 4 * ok.vad_frame_length);
  const StreamSummary summary = client.end_stream(decisions);
  EXPECT_EQ(summary.segments, 1u);
  EXPECT_EQ(decisions.size(), summary.segments);
  server.stop();
  EXPECT_EQ(server.stats().decisions, 1u);
}

// The ServeEventLoop cases below keep the names they had when these
// contracts were checked against the retired event-loop engine; they now
// run against the one server, each from a different state than the
// ServeServer case of the same contract above.

TEST(ServeEventLoop, IdleDeadlineExpires) {
  // A finished utterance resets the deadline; a connection that then goes
  // quiet is expired on that fresh deadline, not kept open forever.
  ServerConfig config = normal_mode_config("deadline_idle");
  config.request_deadline_ms = 500;
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
  (void)client.hello();
  const DecisionFrame decision = client.score(serve_test::make_capture(4, 256));
  EXPECT_EQ(decision.decision, static_cast<std::uint8_t>(core::Decision::kAccepted));
  // Send nothing further: the next utterance's deadline expires.
  const Frame reply = client.read_frame(5000);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(parse_error(reply).code, ErrorCode::kDeadlineExceeded);
  EXPECT_THROW((void)client.read_frame(5000), ClientError);
  EXPECT_TRUE(eventually([&] { return server.stats().deadline_expirations == 1; }));
  server.stop();
  EXPECT_EQ(server.stats().decisions, 1u);
}

TEST(ServeEventLoop, MalformedBytesGetErrorFrame) {
  // Garbage after a completed handshake and utterance still gets a typed
  // BAD_REQUEST, and the connection is closed rather than resynchronised.
  ServerConfig config = normal_mode_config("garbage_midsession");
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
  (void)client.hello();
  (void)client.score(serve_test::make_capture(4, 256));
  const std::vector<std::uint8_t> garbage(64, 0xee);
  client.send_bytes(garbage.data(), garbage.size());
  const Frame reply = client.read_frame(5000);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(parse_error(reply).code, ErrorCode::kBadRequest);
  EXPECT_THROW((void)client.read_frame(5000), ClientError);
  EXPECT_TRUE(eventually([&] { return server.stats().session_errors == 1; }));
  server.stop();
  EXPECT_EQ(server.stats().decisions, 1u);
}

TEST(ServeEventLoop, StopIsIdempotentAndRestartFails) {
  // stop() before start() is a no-op; request_stop() then repeated stop()
  // drains an idle client with SHUTTING_DOWN; a stopped server cannot be
  // restarted.
  ServerConfig config = normal_mode_config("stop_idle_client");
  Server server(test_pipeline(), config);
  server.stop();
  EXPECT_FALSE(server.running());
  server.start();
  EXPECT_TRUE(server.running());

  auto client = BlockingClient::connect_unix(config.socket_path);
  (void)client.hello();
  server.request_stop();
  server.stop();
  server.stop();  // second call is a no-op
  EXPECT_FALSE(server.running());
  const Frame reply = client.read_frame(5000);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(parse_error(reply).code, ErrorCode::kShuttingDown);
  EXPECT_THROW(server.start(), std::runtime_error);
}

}  // namespace
