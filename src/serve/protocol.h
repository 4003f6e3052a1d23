// Wire protocol of the inference daemon (headtalk_serve).
//
// Every message is a length-prefixed binary frame so a stream socket can
// carry interleaved audio without delimiters or escaping:
//
//   header (8 bytes):
//     u32 payload_len   (bounded; kMaxPayloadBytes)
//     u8  type          (FrameType)
//     u8  flags         (must be 0 in version 1)
//     u16 reserved      (must be 0 in version 1)
//   payload (payload_len bytes, layout per frame type)
//
// Byte order: every multi-byte field — length prefixes, u16/u32/u64
// integers, and IEEE-754 f32/f64 values (serialized via their bit
// patterns) — is LITTLE-ENDIAN on the wire, independent of host byte
// order. The codec byteswaps on big-endian hosts rather than assuming the
// host layout, so captures recorded on one machine parse identically on
// any other; tests pin the format against hand-built LE byte arrays.
//
// A request is HELLO → HELLO_OK, then any number of utterances, each
// AUDIO_CHUNK* followed by END_OF_UTTERANCE and answered with exactly one
// DECISION (or ERROR). Alternatively STREAM_START → STREAM_OK switches the
// connection to auto-endpoint streaming: AUDIO_CHUNKs carry continuous
// audio, the server segments it itself and pushes one STREAM_DECISION per
// detected utterance until STREAM_END → STREAM_SUMMARY. An overloaded
// server answers a fresh connection with BUSY and closes. Decoding is
// strict: unknown types, nonzero
// reserved bits, oversized lengths, short payloads, and trailing payload
// bytes all throw ProtocolError — a malformed client cannot put the
// daemon into an undefined state.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace headtalk::serve {

class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint32_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Hard upper bound on any frame payload (audio chunks included).
inline constexpr std::size_t kMaxPayloadBytes = 4u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,           ///< client→server: version + stream geometry
  kHelloOk = 2,         ///< server→client: accepted config + limits
  kAudioChunk = 3,      ///< client→server: interleaved float32 samples
  kEndOfUtterance = 4,  ///< client→server: score what has been streamed
  kDecision = 5,        ///< server→client: one verdict per utterance
  kError = 6,           ///< server→client: fatal request error (closes)
  kBusy = 7,            ///< server→client: overloaded, retry later (closes)
  // Auto-endpoint streaming (the always-listening mode): after STREAM_START
  // the server owns segmentation — AUDIO_CHUNKs carry continuous audio, the
  // server's VAD/endpointer finds the utterances, and each one is answered
  // with a STREAM_DECISION (no END_OF_UTTERANCE). STREAM_END returns the
  // connection to per-utterance mode with a STREAM_SUMMARY.
  kStreamStart = 8,     ///< client→server: enter auto-endpoint streaming
  kStreamOk = 9,        ///< server→client: streaming accepted + geometry
  kStreamDecision = 10, ///< server→client: one verdict per detected segment
  kStreamEnd = 11,      ///< client→server: leave streaming, request summary
  kStreamSummary = 12,  ///< server→client: stream totals
  // Tenant-scoped serving: after HELLO_OK a client may bind the
  // connection to a tenant with AUTH. The server answers AUTH_OK (profile
  // generation + policy) or AUTH_REJECT — a *non-fatal* typed status
  // (unknown tenant, duplicate AUTH, AUTH mid-stream, tenants disabled);
  // the connection continues tenant-less so clients can distinguish "not
  // enrolled" from a dropped/busy connection.
  kAuth = 13,           ///< client→server: bind the connection to a tenant
  kAuthOk = 14,         ///< server→client: tenant resolved + policy echo
  kAuthReject = 15,     ///< server→client: AUTH declined (non-fatal)
};

[[nodiscard]] std::string_view frame_type_name(FrameType type);
[[nodiscard]] bool frame_type_known(std::uint8_t raw) noexcept;

/// A decoded frame: validated header + raw payload bytes.
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;
};

// ---- typed payloads -------------------------------------------------------

struct Hello {
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint32_t sample_rate_hz = 48000;
  std::uint16_t channels = 4;
};

struct HelloOk {
  std::uint32_t protocol_version = kProtocolVersion;
  /// Largest AUDIO_CHUNK accepted (frames per channel).
  std::uint32_t max_chunk_frames = 0;
  /// Hard limit on one utterance (frames per channel): the AUDIO_CHUNK
  /// that would take an utterance past it is answered with a fatal
  /// ERROR too-large. Does not apply to streaming mode.
  std::uint32_t max_utterance_frames = 0;
};

struct AudioChunk {
  std::uint32_t frames = 0;
  std::vector<float> interleaved;  ///< frames * channels samples
};

struct EndOfUtterance {
  bool followup = false;  ///< score as an in-session follow-up command
};

struct DecisionFrame {
  std::uint8_t decision = 0;  ///< core::Decision as integer
  bool live = false;
  bool facing = false;
  bool via_open_session = false;
  double liveness_score = 0.0;
  double orientation_score = 0.0;
  /// Server time from END_OF_UTTERANCE (or, for a STREAM_DECISION, the
  /// endpoint) to the verdict; chunks were accumulated as they arrived.
  double elapsed_seconds = 0.0;
  // Tenant policy verdict. On a tenant-less connection policy_applied is
  // false and policy_allowed simply mirrors the pipeline acceptance; on an
  // AUTH'd connection the policy engine fills all three (policy_reason is
  // a tenant::PolicyReason byte — the wire layer stays tenant-agnostic).
  bool policy_applied = false;
  bool policy_allowed = false;
  std::uint8_t policy_reason = 0;
  /// Speaker-identity match score (0 when no match was evaluated).
  double match_score = 0.0;
};

/// Server acknowledgment of STREAM_START: the segmentation geometry the
/// client can expect decisions to be quantized to.
struct StreamOk {
  /// Samples per VAD analysis frame (decision timestamps are multiples).
  std::uint32_t vad_frame_length = 0;
  /// Largest segment (sample frames) before a force-close.
  std::uint32_t max_segment_frames = 0;
};

/// One auto-endpointed verdict: the DECISION fields plus where in the
/// stream the segment sat and whether it was force-closed at max length.
struct StreamDecisionFrame {
  DecisionFrame decision;
  double begin_seconds = 0.0;
  double end_seconds = 0.0;
  bool force_closed = false;
};

/// Totals for one streaming episode (STREAM_START .. STREAM_END).
struct StreamSummary {
  std::uint64_t frames_streamed = 0;
  std::uint32_t segments = 0;
  std::uint32_t force_closed = 0;
  std::uint32_t discarded = 0;
};

/// Longest tenant id the AUTH frame carries (matches
/// tenant::is_valid_tenant_id's bound).
inline constexpr std::size_t kMaxTenantIdBytes = 64;

struct AuthFrame {
  std::string tenant_id;
};

/// AUTH accepted: the tenant's profile generation and effective policy at
/// bind time (later hot reloads may move the generation — /tenants.json
/// shows the live one).
struct AuthOk {
  std::uint64_t generation = 0;
  std::uint8_t policy_rule = 0;  ///< tenant::PolicyRule byte
  std::uint32_t quota_per_minute = 0;
};

enum class AuthRejectCode : std::uint32_t {
  kUnknownTenant = 1,         ///< no such tenant in the store ("not enrolled")
  kAlreadyAuthenticated = 2,  ///< double AUTH on one connection
  kStreamOpen = 3,            ///< AUTH after a stream/utterance is open
  kTenantsDisabled = 4,       ///< server runs without a tenant store
};

[[nodiscard]] std::string_view auth_reject_code_name(AuthRejectCode code);

/// Non-fatal AUTH refusal: the connection stays usable (tenant-less).
struct AuthReject {
  AuthRejectCode code = AuthRejectCode::kUnknownTenant;
  std::string message;
};

enum class ErrorCode : std::uint32_t {
  kBadRequest = 1,          ///< malformed frame or frame out of order
  kUnsupportedVersion = 2,  ///< HELLO version the server does not speak
  kTooLarge = 3,            ///< chunk/utterance beyond the advertised limits
  kDeadlineExceeded = 4,    ///< request ran past the per-request deadline
  kShuttingDown = 5,        ///< server is draining
  kInternal = 6,            ///< scoring failed server-side
};

[[nodiscard]] std::string_view error_code_name(ErrorCode code);

struct ErrorFrame {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

// ---- encode ---------------------------------------------------------------

[[nodiscard]] std::vector<std::uint8_t> encode_hello(const Hello& hello);
[[nodiscard]] std::vector<std::uint8_t> encode_hello_ok(const HelloOk& ok);
/// `interleaved.size()` must be a nonzero multiple of `channels`.
[[nodiscard]] std::vector<std::uint8_t> encode_audio_chunk(
    std::span<const float> interleaved, std::uint16_t channels);
[[nodiscard]] std::vector<std::uint8_t> encode_end_of_utterance(bool followup);
[[nodiscard]] std::vector<std::uint8_t> encode_decision(const DecisionFrame& decision);
[[nodiscard]] std::vector<std::uint8_t> encode_error(ErrorCode code,
                                                     std::string_view message);
[[nodiscard]] std::vector<std::uint8_t> encode_busy();
[[nodiscard]] std::vector<std::uint8_t> encode_stream_start();
[[nodiscard]] std::vector<std::uint8_t> encode_stream_ok(const StreamOk& ok);
[[nodiscard]] std::vector<std::uint8_t> encode_stream_decision(
    const StreamDecisionFrame& decision);
[[nodiscard]] std::vector<std::uint8_t> encode_stream_end();
[[nodiscard]] std::vector<std::uint8_t> encode_stream_summary(
    const StreamSummary& summary);
[[nodiscard]] std::vector<std::uint8_t> encode_auth(std::string_view tenant_id);
[[nodiscard]] std::vector<std::uint8_t> encode_auth_ok(const AuthOk& ok);
[[nodiscard]] std::vector<std::uint8_t> encode_auth_reject(AuthRejectCode code,
                                                           std::string_view message);

// ---- strict decode --------------------------------------------------------
// Each parser requires the exact frame type and consumes the payload fully;
// anything else throws ProtocolError.

[[nodiscard]] Hello parse_hello(const Frame& frame);
[[nodiscard]] HelloOk parse_hello_ok(const Frame& frame);
/// `channels` comes from the session's HELLO; the chunk length must match,
/// and every sample must be finite (NaN / ±Inf throw).
[[nodiscard]] AudioChunk parse_audio_chunk(const Frame& frame, std::uint16_t channels);
[[nodiscard]] EndOfUtterance parse_end_of_utterance(const Frame& frame);
[[nodiscard]] DecisionFrame parse_decision(const Frame& frame);
[[nodiscard]] ErrorFrame parse_error(const Frame& frame);
void parse_stream_start(const Frame& frame);  ///< validates the empty payload
[[nodiscard]] StreamOk parse_stream_ok(const Frame& frame);
[[nodiscard]] StreamDecisionFrame parse_stream_decision(const Frame& frame);
void parse_stream_end(const Frame& frame);  ///< validates the empty payload
[[nodiscard]] StreamSummary parse_stream_summary(const Frame& frame);
[[nodiscard]] AuthFrame parse_auth(const Frame& frame);
[[nodiscard]] AuthOk parse_auth_ok(const Frame& frame);
[[nodiscard]] AuthReject parse_auth_reject(const Frame& frame);

/// Incremental frame decoder for a byte stream. feed() accepts whatever
/// the socket produced; next() yields completed frames in order. A
/// malformed header or an oversized length throws ProtocolError from
/// feed() — the stream is unrecoverable at that point.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_payload_bytes = kMaxPayloadBytes)
      : max_payload_bytes_(max_payload_bytes) {}

  void feed(const void* data, std::size_t size);
  [[nodiscard]] std::optional<Frame> next();
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  /// Validates the header at the current read position (if complete).
  void check_header();

  std::size_t max_payload_bytes_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace headtalk::serve
