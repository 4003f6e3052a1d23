// Per-connection session engine of the inference daemon.
//
// A Session is a pure state machine over the wire protocol: bytes from the
// socket go in, response bytes come out, and all socket I/O stays in the
// server core — which makes every transition unit-testable without a
// network. Streamed audio accumulates in a bounded ring (oldest frames are
// dropped once the utterance limit is reached; a wake word lives at the
// *end* of a capture), and END_OF_UTTERANCE runs the shared resident
// pipeline via its const, thread-safe scoring entry point while the
// HeadTalk session flag (open session ⇒ follow-ups skip the orientation
// check) stays per-connection.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <string>

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
  /// Utterance ring capacity (frames per channel); excess drops oldest.
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

/// Fixed-capacity interleaved multichannel accumulator. Appends past the
/// capacity overwrite the oldest frames (and are counted), so a client
/// streaming more audio than the advertised utterance limit still gets the
/// most recent — wake-word-bearing — span scored.
class SampleRing {
 public:
  void reset(std::uint16_t channels, std::size_t capacity_frames, double sample_rate);

  /// `interleaved.size()` must be a multiple of the channel count.
  void append(std::span<const float> interleaved);

  [[nodiscard]] std::size_t frames() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity_frames() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t dropped_frames() const noexcept { return dropped_; }
  [[nodiscard]] std::uint16_t channels() const noexcept { return channels_; }

  /// Deinterleaves the buffered frames, oldest first.
  [[nodiscard]] audio::MultiBuffer snapshot() const;

  /// Empties the ring (capacity and geometry are kept).
  void clear() noexcept;

 private:
  std::vector<float> data_;  ///< capacity_ * channels_, ring-indexed by frame
  std::uint16_t channels_ = 0;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  ///< frame index of the oldest buffered frame
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  double sample_rate_ = audio::kDefaultSampleRate;
};

class Session {
 public:
  /// The pipeline outlives the session and is shared across sessions; only
  /// its const scoring entry point is used.
  Session(const core::HeadTalkPipeline& pipeline, SessionLimits limits = {});

  /// Attaches per-thread scoring scratch (owned by the serve worker, reused
  /// across the consecutive connections that worker handles). Optional —
  /// scoring without a workspace is identical, just allocation-heavier. The
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

  /// Moves out the response bytes produced so far.
  [[nodiscard]] std::vector<std::uint8_t> take_output();

  [[nodiscard]] bool finished() const noexcept { return state_ == State::kFailed; }
  [[nodiscard]] std::size_t decisions_sent() const noexcept { return decisions_; }
  [[nodiscard]] bool hello_done() const noexcept { return state_ == State::kStreaming; }
  /// True when no utterance is in flight: nothing buffered in the ring, no
  /// partial frame pending and — in streaming mode — no open segment. A
  /// drain may close an idle connection immediately; a non-idle one is
  /// owed its DECISION first.
  [[nodiscard]] bool idle() const noexcept {
    if (stream_mode_ && detector_ && detector_->in_utterance()) return false;
    return ring_.frames() == 0 && reader_.buffered_bytes() == 0;
  }
  /// True between STREAM_START and STREAM_END: the server owns
  /// segmentation, so the connection may legitimately sit silent between
  /// utterances (the server's deadline handling keys off this).
  [[nodiscard]] bool stream_mode() const noexcept { return stream_mode_; }
  [[nodiscard]] const SessionLimits& limits() const noexcept { return limits_; }
  /// Tenant this connection AUTH'd as (empty = tenant-less).
  [[nodiscard]] const std::string& tenant_id() const noexcept { return tenant_id_; }
  [[nodiscard]] bool authenticated() const noexcept { return !tenant_id_.empty(); }

 private:
  enum class State { kAwaitHello, kStreaming, kFailed };

  void handle_frame(const Frame& frame);
  void handle_hello(const Frame& frame);
  void handle_auth(const Frame& frame);
  void handle_chunk(const Frame& frame);
  void handle_end_of_utterance(const Frame& frame);
  void handle_stream_start(const Frame& frame);
  void handle_stream_end(const Frame& frame);
  void emit_stream_decision(const stream::DecisionEvent& event);
  /// Fills the DECISION policy fields: the tenant's policy engine on an
  /// AUTH'd connection, a mirror of the pipeline verdict otherwise.
  void apply_policy(DecisionFrame& decision, const core::PipelineResult& result,
                    const core::FeatureCapture& features);
  void reject_auth(AuthRejectCode code, const std::string& message);
  void fail(ErrorCode code, const std::string& message);

  const core::HeadTalkPipeline& pipeline_;
  core::ScoringWorkspace* workspace_ = nullptr;  ///< not owned; may be null
  SessionLimits limits_;
  FrameReader reader_;
  std::vector<std::uint8_t> output_;
  SampleRing ring_;
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
