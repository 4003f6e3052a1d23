#include "serve/session.h"

#include <exception>

#include "core/scoring_workspace.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tenant/service.h"

namespace headtalk::serve {

Session::Session(const core::HeadTalkPipeline& pipeline, SessionLimits limits)
    : pipeline_(pipeline), limits_(limits) {}

core::IncrementalExtractor& Session::op() noexcept {
  return workspace_ != nullptr ? workspace_->incremental() : own_op_;
}

bool Session::on_bytes(const void* data, std::size_t size) {
  if (state_ == State::kFailed) return false;
  try {
    reader_.feed(data, size);
    // Every complete buffered frame, in order, until the session fails.
    while (state_ != State::kFailed) {
      const auto frame = reader_.next();
      if (!frame) break;
      handle_frame(*frame);
    }
  } catch (const ProtocolError& error) {
    fail(ErrorCode::kBadRequest, error.what());
  }
  return state_ != State::kFailed;
}

std::vector<std::uint8_t> Session::take_output() {
  std::vector<std::uint8_t> out;
  out.swap(output_);
  return out;
}

void Session::handle_frame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      handle_hello(frame);
      return;
    case FrameType::kAuth:
      handle_auth(frame);
      return;
    case FrameType::kAudioChunk:
      handle_chunk(frame);
      return;
    case FrameType::kEndOfUtterance:
      handle_end_of_utterance(frame);
      return;
    case FrameType::kStreamStart:
      handle_stream_start(frame);
      return;
    case FrameType::kStreamEnd:
      handle_stream_end(frame);
      return;
    case FrameType::kHelloOk:
    case FrameType::kDecision:
    case FrameType::kError:
    case FrameType::kBusy:
    case FrameType::kStreamOk:
    case FrameType::kStreamDecision:
    case FrameType::kStreamSummary:
    case FrameType::kAuthOk:
    case FrameType::kAuthReject:
      fail(ErrorCode::kBadRequest,
           std::string("client sent a server-only frame: ") +
               std::string(frame_type_name(frame.type)));
      return;
  }
  fail(ErrorCode::kBadRequest, "unhandled frame type");
}

void Session::handle_hello(const Frame& frame) {
  if (state_ != State::kAwaitHello) {
    fail(ErrorCode::kBadRequest, "duplicate HELLO");
    return;
  }
  const Hello hello = parse_hello(frame);
  if (hello.protocol_version != kProtocolVersion) {
    fail(ErrorCode::kUnsupportedVersion,
         "server speaks protocol version " + std::to_string(kProtocolVersion) +
             ", client sent " + std::to_string(hello.protocol_version));
    return;
  }
  if (hello.channels > limits_.max_channels) {
    fail(ErrorCode::kTooLarge,
         "channel count " + std::to_string(hello.channels) + " exceeds limit " +
             std::to_string(limits_.max_channels));
    return;
  }
  // HeadTalk feeds every chunk to the operator, whose liveness stage takes
  // only whole multiples of its rate: refuse any other rate up front.
  const double live_rate = pipeline_.incremental_config().liveness.model_sample_rate;
  if (limits_.mode == core::VaMode::kHeadTalk &&
      core::liveness_decimation(hello.sample_rate_hz, live_rate) == 0) {
    fail(ErrorCode::kBadRequest,
         "sample rate " + std::to_string(hello.sample_rate_hz) +
             " Hz: HeadTalk mode takes only whole multiples of the " +
             std::to_string(static_cast<long long>(live_rate)) +
             " Hz liveness rate");
    return;
  }
  channels_ = hello.channels;
  sample_rate_ = static_cast<double>(hello.sample_rate_hz);
  chunk_ = audio::MultiBuffer(channels_, 0, sample_rate_);
  state_ = State::kStreaming;

  HelloOk ok;
  ok.max_chunk_frames = limits_.max_chunk_frames;
  ok.max_utterance_frames = limits_.max_utterance_frames;
  const auto bytes = encode_hello_ok(ok);
  output_.insert(output_.end(), bytes.begin(), bytes.end());
}

void Session::handle_auth(const Frame& frame) {
  if (state_ != State::kStreaming) {
    // Before HELLO the connection has no negotiated protocol state at all;
    // this stays a hard protocol error like every other pre-HELLO frame.
    fail(ErrorCode::kBadRequest, "AUTH before HELLO");
    return;
  }
  const AuthFrame auth = parse_auth(frame);
  // Everything below is a *non-fatal* refusal: the protocol-hardening
  // contract is that a misplaced or unresolvable AUTH answers a typed
  // AUTH_REJECT and the connection continues tenant-less.
  if (stream_mode_) {
    reject_auth(AuthRejectCode::kStreamOpen, "AUTH while a stream is open");
    return;
  }
  if (utterance_frames_ != 0) {
    reject_auth(AuthRejectCode::kStreamOpen, "AUTH with an utterance in flight");
    return;
  }
  if (!tenant_id_.empty()) {
    reject_auth(AuthRejectCode::kAlreadyAuthenticated,
                "connection already bound to tenant '" + tenant_id_ + "'");
    return;
  }
  if (limits_.tenants == nullptr) {
    reject_auth(AuthRejectCode::kTenantsDisabled,
                "server is running without a tenant store");
    return;
  }
  const auto info = limits_.tenants->authenticate(auth.tenant_id);
  if (!info) {
    reject_auth(AuthRejectCode::kUnknownTenant,
                "tenant '" + auth.tenant_id + "' is not enrolled");
    return;
  }
  tenant_id_ = auth.tenant_id;
  static obs::Counter& auths =
      obs::Registry::global().counter("serve.session.auth_ok");
  auths.increment();

  AuthOk ok;
  ok.generation = info->generation;
  ok.policy_rule = static_cast<std::uint8_t>(info->rule);
  ok.quota_per_minute = info->quota_per_minute;
  const auto bytes = encode_auth_ok(ok);
  output_.insert(output_.end(), bytes.begin(), bytes.end());
}

void Session::reject_auth(AuthRejectCode code, const std::string& message) {
  static obs::Counter& rejects =
      obs::Registry::global().counter("serve.session.auth_rejected");
  rejects.increment();
  obs::log_warn("serve.session.auth_reject",
                {{"code", auth_reject_code_name(code)}, {"message", message}});
  const auto bytes = encode_auth_reject(code, message);
  output_.insert(output_.end(), bytes.begin(), bytes.end());
}

DecisionFrame Session::decide(const core::PipelineResult& result,
                             const core::FeatureCapture& features) {
  DecisionFrame decision;
  decision.decision = static_cast<std::uint8_t>(result.decision);
  decision.live = result.live;
  decision.facing = result.facing;
  decision.via_open_session = result.via_open_session;
  decision.liveness_score = result.liveness_score;
  decision.orientation_score = result.orientation_score;
  session_open_ = result.session_open_after;
  if (tenant_id_.empty() || limits_.tenants == nullptr) {
    decision.policy_applied = false;
    decision.policy_allowed = result.decision == core::Decision::kAccepted;
    return decision;
  }
  const tenant::PolicyDecision policy =
      limits_.tenants->decide(tenant_id_, result, features);
  decision.policy_applied = true;
  decision.policy_allowed = policy.allowed;
  decision.policy_reason = static_cast<std::uint8_t>(policy.reason);
  decision.match_score = policy.match_score;
  // A policy denial must not leave a HeadTalk session open: a mismatched
  // or over-quota speaker does not get hands-free follow-ups.
  if (!policy.allowed) session_open_ = false;
  return decision;
}

void Session::handle_chunk(const Frame& frame) {
  if (state_ != State::kStreaming) {
    fail(ErrorCode::kBadRequest, "AUDIO_CHUNK before HELLO");
    return;
  }
  const AudioChunk chunk = parse_audio_chunk(frame, channels_);
  if (chunk.frames > limits_.max_chunk_frames) {
    fail(ErrorCode::kTooLarge,
         "chunk of " + std::to_string(chunk.frames) + " frames exceeds limit " +
             std::to_string(limits_.max_chunk_frames));
    return;
  }
  if (stream_mode_) {
    // Auto-endpoint path: the detector owns segmentation; a chunk may close
    // zero or more segments, each answered with a STREAM_DECISION.
    try {
      const auto events = detector_->push_interleaved(chunk.interleaved);
      for (const auto& event : events) emit_stream_decision(event);
    } catch (const std::exception& error) {
      fail(ErrorCode::kInternal, std::string("stream scoring failed: ") + error.what());
    }
    return;
  }
  if (utterance_frames_ + chunk.frames > limits_.max_utterance_frames) {
    fail(ErrorCode::kTooLarge,
         "utterance of " + std::to_string(utterance_frames_ + chunk.frames) +
             " frames exceeds limit " + std::to_string(limits_.max_utterance_frames));
    return;
  }
  // Normal/Mute verdicts read no features: only HeadTalk feeds the operator.
  if (limits_.mode == core::VaMode::kHeadTalk) {
    // Shared with the streaming detector's per-frame feed: one instrument
    // for all time spent pushing samples through the operator.
    static obs::Histogram& accumulate_seconds = core::pipeline_stage_histogram(
        "pipeline.stage.incremental_accumulate_seconds");
    try {
      obs::Timer timer(&accumulate_seconds);
      core::IncrementalExtractor& extractor = op();
      if (utterance_frames_ == 0) {
        if (workspace_ != nullptr) workspace_->note_use();
        extractor.begin(pipeline_.incremental_config(), channels_, sample_rate_);
      }
      for (std::size_t c = 0; c < channels_; ++c) {
        audio::Buffer& channel = chunk_.channel(c);
        channel.resize(chunk.frames);
        for (std::size_t f = 0; f < chunk.frames; ++f) {
          channel[f] = static_cast<audio::Sample>(chunk.interleaved[f * channels_ + c]);
        }
      }
      extractor.push(chunk_);
    } catch (const std::exception& error) {
      fail(ErrorCode::kInternal, std::string("accumulation failed: ") + error.what());
      return;
    }
  }
  utterance_frames_ += chunk.frames;
}

void Session::handle_end_of_utterance(const Frame& frame) {
  if (state_ != State::kStreaming) {
    fail(ErrorCode::kBadRequest, "END_OF_UTTERANCE before HELLO");
    return;
  }
  if (stream_mode_) {
    fail(ErrorCode::kBadRequest,
         "END_OF_UTTERANCE in streaming mode (the server endpoints)");
    return;
  }
  const EndOfUtterance end = parse_end_of_utterance(frame);
  if (utterance_frames_ == 0) {
    fail(ErrorCode::kBadRequest, "END_OF_UTTERANCE with no audio streamed");
    return;
  }

  // END_OF_UTTERANCE to verdict (finalize + policy): the chunks were
  // already accumulated, so this is what a STREAM_DECISION's latency means.
  static obs::Histogram& score_seconds =
      obs::Registry::global().histogram("serve.score_seconds");
  DecisionFrame decision;
  try {
    obs::ScopedSpan span("serve.score_utterance");
    obs::Timer timer(&score_seconds);
    core::FeatureCapture features;
    const bool want_features = !tenant_id_.empty();
    const core::PipelineResult result =
        pipeline_.finalize_segment(op(), limits_.mode, end.followup, session_open_,
                                   want_features ? &features : nullptr);
    decision = decide(result, features);
    decision.elapsed_seconds = timer.stop();
  } catch (const std::exception& error) {
    fail(ErrorCode::kInternal, std::string("scoring failed: ") + error.what());
    return;
  }
  utterance_frames_ = 0;
  const auto bytes = encode_decision(decision);
  output_.insert(output_.end(), bytes.begin(), bytes.end());
  ++decisions_;
}

void Session::handle_stream_start(const Frame& frame) {
  if (state_ != State::kStreaming) {
    fail(ErrorCode::kBadRequest, "STREAM_START before HELLO");
    return;
  }
  parse_stream_start(frame);
  if (stream_mode_) {
    fail(ErrorCode::kBadRequest, "duplicate STREAM_START");
    return;
  }
  if (utterance_frames_ != 0) {
    fail(ErrorCode::kBadRequest, "STREAM_START with an utterance in flight");
    return;
  }
  stream::StreamingDetectorConfig config = limits_.stream;
  config.mode = limits_.mode;  // one mode governs both scoring paths
  // An AUTH'd stream needs each segment's feature vectors for the
  // speaker-identity match.
  config.capture_features = !tenant_id_.empty();
  detector_ = std::make_unique<stream::StreamingDetector>(pipeline_, channels_,
                                                          sample_rate_, config);
  detector_->set_workspace(workspace_);
  stream_mode_ = true;

  StreamOk ok;
  ok.vad_frame_length = static_cast<std::uint32_t>(detector_->vad().frame_length());
  ok.max_segment_frames = static_cast<std::uint32_t>(
      config.endpoint.max_utterance_frames * detector_->vad().frame_length());
  const auto bytes = encode_stream_ok(ok);
  output_.insert(output_.end(), bytes.begin(), bytes.end());
}

void Session::handle_stream_end(const Frame& frame) {
  if (state_ != State::kStreaming || !stream_mode_) {
    fail(ErrorCode::kBadRequest, "STREAM_END outside streaming mode");
    return;
  }
  parse_stream_end(frame);
  try {
    const auto events = detector_->flush();
    for (const auto& event : events) emit_stream_decision(event);
  } catch (const std::exception& error) {
    fail(ErrorCode::kInternal, std::string("stream scoring failed: ") + error.what());
    return;
  }
  StreamSummary summary;
  summary.frames_streamed = detector_->frames_streamed();
  summary.segments = static_cast<std::uint32_t>(detector_->segments());
  summary.force_closed = static_cast<std::uint32_t>(detector_->force_closed());
  summary.discarded = static_cast<std::uint32_t>(detector_->discarded());
  const auto bytes = encode_stream_summary(summary);
  output_.insert(output_.end(), bytes.begin(), bytes.end());
  // Back to per-utterance mode; the HeadTalk session flag carries over.
  stream_mode_ = false;
  detector_.reset();
}

void Session::emit_stream_decision(const stream::DecisionEvent& event) {
  StreamDecisionFrame decision;
  decision.decision = decide(event.result, event.features);
  decision.decision.elapsed_seconds = event.latency_seconds;
  decision.begin_seconds = event.begin_seconds;
  decision.end_seconds = event.end_seconds;
  decision.force_closed = event.force_closed;
  const auto bytes = encode_stream_decision(decision);
  output_.insert(output_.end(), bytes.begin(), bytes.end());
  ++decisions_;
}

void Session::fail(ErrorCode code, const std::string& message) {
  state_ = State::kFailed;
  static obs::Counter& errors = obs::Registry::global().counter("serve.session.errors");
  errors.increment();
  obs::log_warn("serve.session.error",
                {{"code", error_code_name(code)}, {"message", message}});
  const auto bytes = encode_error(code, message);
  output_.insert(output_.end(), bytes.begin(), bytes.end());
}

}  // namespace headtalk::serve
