// Per-connection session engine of the inference daemon.
//
// A Session is a pure state machine over the wire protocol: bytes from the
// socket go in, response bytes come out, and all socket I/O stays in the
// server core — which makes every transition unit-testable without a
// network. Whole utterances and auto-endpointed streams take one scoring
// path: every AUDIO_CHUNK of an utterance is pushed through the incremental
// operator as it arrives (HeadTalk mode; Normal/Mute verdicts read no
// features, so nothing is fed), and END_OF_UTTERANCE runs only the
// resident pipeline's const finalize ladder — the same call a streamed
// segment closes with. An utterance longer than the advertised
// max_utterance_frames is a fatal ERROR too-large. The HeadTalk session
// flag (open session ⇒ follow-ups skip the orientation check) stays
// per-connection.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "audio/sample_buffer.h"
#include "core/pipeline.h"
#include "serve/protocol.h"
#include "stream/streaming_detector.h"

namespace headtalk::tenant {
class TenantService;
}

namespace headtalk::serve {

struct SessionLimits {
  /// Largest single AUDIO_CHUNK accepted (frames per channel).
  std::uint32_t max_chunk_frames = 1u << 16;
  /// Longest whole utterance accepted (frames per channel); the chunk that
  /// would exceed it is answered with a fatal ERROR too-large.
  std::uint32_t max_utterance_frames = 48000 * 8;
  std::uint16_t max_channels = 16;
  /// Mode the daemon scores under (HeadTalk in production).
  core::VaMode mode = core::VaMode::kHeadTalk;
  /// Segmentation config for the auto-endpoint streaming mode
  /// (STREAM_START). `stream.mode` is ignored — `mode` above governs both
  /// paths.
  stream::StreamingDetectorConfig stream{};
  /// Tenant-scoped serving (AUTH frames). Null runs the daemon tenant-less
  /// (AUTH answers AUTH_REJECT/tenants-disabled). Not owned; must outlive
  /// every session.
  tenant::TenantService* tenants = nullptr;
};

class Session {
 public:
  /// The pipeline outlives the session and is shared across sessions; only
  /// its const scoring entry points are used.
  Session(const core::HeadTalkPipeline& pipeline, SessionLimits limits = {});

  /// Attaches per-thread scoring scratch (owned by the serve worker, reused
  /// across the consecutive connections that worker handles): its
  /// incremental operator accumulates this connection's utterances and
  /// stream segments. Optional — without one the session uses an operator
  /// of its own, with identical results. Attach before the first byte; the
  /// workspace must outlive the session and belong to the driving thread.
  void set_workspace(core::ScoringWorkspace* workspace) noexcept {
    workspace_ = workspace;
    if (detector_) detector_->set_workspace(workspace);
  }

  /// Feeds bytes received from the client; any responses are appended to
  /// the pending output (take_output()). Returns false once the session is
  /// finished — a fatal ERROR frame was emitted and the connection should
  /// be closed after flushing the output.
  bool on_bytes(const void* data, std::size_t size);

  /// Receiving without a copy: space for at least `min_free` bytes from
  /// the client, in the session's frame reader (FrameReader::prepare).
  /// Write the bytes into its front and pass their count to
  /// on_received(). Valid until the next call into the session.
  [[nodiscard]] std::span<std::uint8_t> receive_buffer(std::size_t min_free) {
    return reader_.prepare(min_free);
  }
  /// on_bytes() for `size` bytes already written into receive_buffer()'s
  /// span: they are parsed where they landed.
  bool on_received(std::size_t size);

  /// Moves out the response bytes produced so far.
  [[nodiscard]] std::vector<std::uint8_t> take_output();

  [[nodiscard]] bool finished() const noexcept { return state_ == State::kFailed; }
  [[nodiscard]] std::size_t decisions_sent() const noexcept { return decisions_; }
  [[nodiscard]] bool hello_done() const noexcept { return state_ == State::kStreaming; }
  /// True when no utterance is in flight: no audio received since the last
  /// DECISION, no partial frame pending and — in streaming mode — no open
  /// segment. A drain may close an idle connection immediately; a non-idle
  /// one is owed its DECISION first.
  [[nodiscard]] bool idle() const noexcept {
    if (stream_mode_ && detector_ && detector_->in_utterance()) return false;
    return utterance_frames_ == 0 && reader_.buffered_bytes() == 0;
  }
  /// True between STREAM_START and STREAM_END: the server owns
  /// segmentation, so the connection may legitimately sit silent between
  /// utterances (the server's deadline handling keys off this).
  [[nodiscard]] bool stream_mode() const noexcept { return stream_mode_; }
  /// Frames per channel the open stream's detector has taken (the
  /// STREAM_SUMMARY count so far); 0 outside streaming mode.
  [[nodiscard]] std::uint64_t stream_frames() const noexcept {
    return detector_ ? detector_->frames_streamed() : 0;
  }
  [[nodiscard]] const SessionLimits& limits() const noexcept { return limits_; }
  /// Tenant this connection AUTH'd as (empty = tenant-less).
  [[nodiscard]] const std::string& tenant_id() const noexcept { return tenant_id_; }
  [[nodiscard]] bool authenticated() const noexcept { return !tenant_id_.empty(); }

 private:
  enum class State { kAwaitHello, kStreaming, kFailed };

  void handle_frame(const FrameView& frame);
  void handle_hello(const FrameView& frame);
  void handle_auth(const FrameView& frame);
  void handle_chunk(const FrameView& frame);
  /// False (after failing the session with ERROR too-large) when a chunk
  /// of `frames` exceeds max_chunk_frames.
  bool chunk_fits(std::uint32_t frames);
  void handle_end_of_utterance(const FrameView& frame);
  void handle_stream_start(const FrameView& frame);
  void handle_stream_end(const FrameView& frame);
  void emit_stream_decision(const stream::DecisionEvent& event);
  /// The DECISION body for one scored utterance: the pipeline verdict,
  /// then the policy fields — the tenant's policy engine on an AUTH'd
  /// connection, a mirror of the verdict otherwise. Carries the pipeline's
  /// session flag forward; a policy denial then clears it.
  [[nodiscard]] DecisionFrame decide(const core::PipelineResult& result,
                                     const core::FeatureCapture& features);
  void reject_auth(AuthRejectCode code, const std::string& message);
  void fail(ErrorCode code, const std::string& message);
  /// The operator the current utterance accumulates into: the workspace's
  /// when one is attached, the session's own otherwise.
  [[nodiscard]] core::IncrementalExtractor& op() noexcept;

  const core::HeadTalkPipeline& pipeline_;
  core::ScoringWorkspace* workspace_ = nullptr;  ///< not owned; may be null
  SessionLimits limits_;
  FrameReader reader_;
  std::vector<std::uint8_t> output_;
  core::IncrementalExtractor own_op_;  ///< used only without a workspace
  audio::MultiBuffer chunk_;           ///< the operator's input, decoded chunk by chunk
  std::vector<audio::Sample*> chunk_samples_;  ///< chunk_'s channel data, per chunk
  std::vector<stream::DecisionEvent> stream_events_;  ///< one chunk's decisions, reused
  /// Frames per channel received for the utterance in flight (per-utterance
  /// mode); 0 between END_OF_UTTERANCE and the next AUDIO_CHUNK.
  std::uint64_t utterance_frames_ = 0;
  std::unique_ptr<stream::StreamingDetector> detector_;  ///< streaming mode only
  State state_ = State::kAwaitHello;
  std::uint16_t channels_ = 0;
  double sample_rate_ = audio::kDefaultSampleRate;
  bool stream_mode_ = false;
  bool session_open_ = false;  ///< HeadTalk open-session flag, per connection
  std::size_t decisions_ = 0;
  /// AUTH state: the id only — the profile is re-resolved per decision
  /// from the service's live snapshot, so a hot reload takes effect for
  /// this connection's next utterance without dropping it.
  std::string tenant_id_;
};

}  // namespace headtalk::serve
