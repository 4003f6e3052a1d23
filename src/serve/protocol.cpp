#include "serve/protocol.h"

#include <bit>
#include <cmath>
#include <cstring>

namespace headtalk::serve {
namespace {

static_assert(sizeof(float) == 4 && sizeof(double) == 8,
              "the wire protocol assumes IEEE-754 float sizes");

constexpr std::size_t kMaxErrorMessageBytes = 1024;

constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

void append_bytes(std::vector<std::uint8_t>& out, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + n);
}

void append_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

// All multi-byte fields are serialized least-significant byte first —
// the shift/mask form is byte-order independent, so the wire format stays
// little-endian even on a big-endian host (see protocol.h).
template <typename T>
void append_le(std::vector<std::uint8_t>& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) { append_le(out, v); }

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) { append_le(out, v); }

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) { append_le(out, v); }

void append_f64(std::vector<std::uint8_t>& out, double v) {
  append_le(out, std::bit_cast<std::uint64_t>(v));
}

void append_f32_array(std::vector<std::uint8_t>& out, std::span<const float> values) {
  if constexpr (kLittleEndianHost) {
    // The hot path (audio chunks): host layout already matches the wire.
    append_bytes(out, values.data(), values.size() * sizeof(float));
  } else {
    for (const float v : values) append_le(out, std::bit_cast<std::uint32_t>(v));
  }
}

template <typename T>
T load_le(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
  }
  return v;
}

/// Bounds-checked little-endian payload cursor; every read throws
/// ProtocolError past the end, and finish() rejects trailing bytes.
class ByteCursor {
 public:
  ByteCursor(const std::vector<std::uint8_t>& bytes, const char* what)
      : bytes_(bytes), what_(what) {}

  std::uint8_t read_u8() { return read_le<std::uint8_t>(); }
  std::uint16_t read_u16() { return read_le<std::uint16_t>(); }
  std::uint32_t read_u32() { return read_le<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_le<std::uint64_t>(); }
  double read_f64() { return std::bit_cast<double>(read_le<std::uint64_t>()); }

  void read_f32_array(float* out, std::size_t count) {
    require(count * sizeof(float));
    if constexpr (kLittleEndianHost) {
      std::memcpy(out, bytes_.data() + offset_, count * sizeof(float));
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = std::bit_cast<float>(
            load_le<std::uint32_t>(bytes_.data() + offset_ + i * sizeof(float)));
      }
    }
    offset_ += count * sizeof(float);
  }

  std::string read_chars(std::size_t count) {
    require(count);
    std::string text(reinterpret_cast<const char*>(bytes_.data() + offset_), count);
    offset_ += count;
    return text;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - offset_;
  }

  void finish() {
    if (offset_ != bytes_.size()) {
      throw ProtocolError(std::string(what_) + ": trailing payload bytes");
    }
  }

 private:
  template <typename T>
  T read_le() {
    require(sizeof(T));
    const T value = load_le<T>(bytes_.data() + offset_);
    offset_ += sizeof(T);
    return value;
  }

  void require(std::size_t n) {
    if (bytes_.size() - offset_ < n) {
      throw ProtocolError(std::string(what_) + ": payload truncated");
    }
  }

  const std::vector<std::uint8_t>& bytes_;
  const char* what_;
  std::size_t offset_ = 0;
};

/// Builds `header + payload` with the final length patched in.
std::vector<std::uint8_t> finish_frame(FrameType type,
                                       std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  append_u32(out, static_cast<std::uint32_t>(payload.size()));
  append_u8(out, static_cast<std::uint8_t>(type));
  append_u8(out, 0);   // flags
  append_u16(out, 0);  // reserved
  append_bytes(out, payload.data(), payload.size());
  return out;
}

void expect_type(const Frame& frame, FrameType type, const char* what) {
  if (frame.type != type) {
    throw ProtocolError(std::string(what) + ": got " +
                        std::string(frame_type_name(frame.type)) + " frame");
  }
}

}  // namespace

std::string_view frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kHelloOk:
      return "HELLO_OK";
    case FrameType::kAudioChunk:
      return "AUDIO_CHUNK";
    case FrameType::kEndOfUtterance:
      return "END_OF_UTTERANCE";
    case FrameType::kDecision:
      return "DECISION";
    case FrameType::kError:
      return "ERROR";
    case FrameType::kBusy:
      return "BUSY";
    case FrameType::kStreamStart:
      return "STREAM_START";
    case FrameType::kStreamOk:
      return "STREAM_OK";
    case FrameType::kStreamDecision:
      return "STREAM_DECISION";
    case FrameType::kStreamEnd:
      return "STREAM_END";
    case FrameType::kStreamSummary:
      return "STREAM_SUMMARY";
    case FrameType::kAuth:
      return "AUTH";
    case FrameType::kAuthOk:
      return "AUTH_OK";
    case FrameType::kAuthReject:
      return "AUTH_REJECT";
  }
  return "?";
}

bool frame_type_known(std::uint8_t raw) noexcept {
  return raw >= static_cast<std::uint8_t>(FrameType::kHello) &&
         raw <= static_cast<std::uint8_t>(FrameType::kAuthReject);
}

std::string_view auth_reject_code_name(AuthRejectCode code) {
  switch (code) {
    case AuthRejectCode::kUnknownTenant:
      return "unknown-tenant";
    case AuthRejectCode::kAlreadyAuthenticated:
      return "already-authenticated";
    case AuthRejectCode::kStreamOpen:
      return "stream-open";
    case AuthRejectCode::kTenantsDisabled:
      return "tenants-disabled";
  }
  return "?";
}

std::string_view error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest:
      return "bad-request";
    case ErrorCode::kUnsupportedVersion:
      return "unsupported-version";
    case ErrorCode::kTooLarge:
      return "too-large";
    case ErrorCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case ErrorCode::kShuttingDown:
      return "shutting-down";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "?";
}

std::vector<std::uint8_t> encode_hello(const Hello& hello) {
  std::vector<std::uint8_t> payload;
  append_u32(payload, hello.protocol_version);
  append_u32(payload, hello.sample_rate_hz);
  append_u16(payload, hello.channels);
  append_u16(payload, 0);  // reserved
  return finish_frame(FrameType::kHello, std::move(payload));
}

std::vector<std::uint8_t> encode_hello_ok(const HelloOk& ok) {
  std::vector<std::uint8_t> payload;
  append_u32(payload, ok.protocol_version);
  append_u32(payload, ok.max_chunk_frames);
  append_u32(payload, ok.max_utterance_frames);
  return finish_frame(FrameType::kHelloOk, std::move(payload));
}

std::vector<std::uint8_t> encode_audio_chunk(std::span<const float> interleaved,
                                             std::uint16_t channels) {
  if (channels == 0 || interleaved.empty() || interleaved.size() % channels != 0) {
    throw ProtocolError("AUDIO_CHUNK: sample count must be a nonzero multiple "
                        "of the channel count");
  }
  std::vector<std::uint8_t> payload;
  payload.reserve(sizeof(std::uint32_t) + interleaved.size() * sizeof(float));
  append_u32(payload, static_cast<std::uint32_t>(interleaved.size() / channels));
  append_f32_array(payload, interleaved);
  if (payload.size() > kMaxPayloadBytes) {
    throw ProtocolError("AUDIO_CHUNK: chunk larger than kMaxPayloadBytes");
  }
  return finish_frame(FrameType::kAudioChunk, std::move(payload));
}

std::vector<std::uint8_t> encode_end_of_utterance(bool followup) {
  std::vector<std::uint8_t> payload;
  append_u8(payload, followup ? 1 : 0);
  append_u8(payload, 0);
  append_u16(payload, 0);
  return finish_frame(FrameType::kEndOfUtterance, std::move(payload));
}

namespace {

// The DECISION field block is shared verbatim by STREAM_DECISION, so the
// two frames cannot drift apart.
void append_decision_fields(std::vector<std::uint8_t>& payload,
                            const DecisionFrame& decision) {
  append_u8(payload, decision.decision);
  append_u8(payload, decision.live ? 1 : 0);
  append_u8(payload, decision.facing ? 1 : 0);
  append_u8(payload, decision.via_open_session ? 1 : 0);
  append_f64(payload, decision.liveness_score);
  append_f64(payload, decision.orientation_score);
  append_f64(payload, decision.elapsed_seconds);
  append_u8(payload, decision.policy_applied ? 1 : 0);
  append_u8(payload, decision.policy_allowed ? 1 : 0);
  append_u8(payload, decision.policy_reason);
  append_u8(payload, 0);  // reserved
  append_f64(payload, decision.match_score);
}

DecisionFrame read_decision_fields(ByteCursor& in, const char* what) {
  DecisionFrame decision;
  decision.decision = in.read_u8();
  if (decision.decision > 3) {
    throw ProtocolError(std::string(what) + ": unknown decision code");
  }
  const std::uint8_t live = in.read_u8();
  const std::uint8_t facing = in.read_u8();
  const std::uint8_t via = in.read_u8();
  if (live > 1 || facing > 1 || via > 1) {
    throw ProtocolError(std::string(what) + ": bad boolean flag");
  }
  decision.live = live == 1;
  decision.facing = facing == 1;
  decision.via_open_session = via == 1;
  decision.liveness_score = in.read_f64();
  decision.orientation_score = in.read_f64();
  decision.elapsed_seconds = in.read_f64();
  const std::uint8_t applied = in.read_u8();
  const std::uint8_t allowed = in.read_u8();
  if (applied > 1 || allowed > 1) {
    throw ProtocolError(std::string(what) + ": bad policy flag");
  }
  decision.policy_applied = applied == 1;
  decision.policy_allowed = allowed == 1;
  decision.policy_reason = in.read_u8();
  if (in.read_u8() != 0) {
    throw ProtocolError(std::string(what) + ": reserved policy bits set");
  }
  decision.match_score = in.read_f64();
  return decision;
}

}  // namespace

std::vector<std::uint8_t> encode_decision(const DecisionFrame& decision) {
  std::vector<std::uint8_t> payload;
  append_decision_fields(payload, decision);
  return finish_frame(FrameType::kDecision, std::move(payload));
}

std::vector<std::uint8_t> encode_error(ErrorCode code, std::string_view message) {
  if (message.size() > kMaxErrorMessageBytes) {
    message = message.substr(0, kMaxErrorMessageBytes);
  }
  std::vector<std::uint8_t> payload;
  append_u32(payload, static_cast<std::uint32_t>(code));
  append_u32(payload, static_cast<std::uint32_t>(message.size()));
  append_bytes(payload, message.data(), message.size());
  return finish_frame(FrameType::kError, std::move(payload));
}

std::vector<std::uint8_t> encode_busy() { return finish_frame(FrameType::kBusy, {}); }

std::vector<std::uint8_t> encode_stream_start() {
  return finish_frame(FrameType::kStreamStart, {});
}

std::vector<std::uint8_t> encode_stream_ok(const StreamOk& ok) {
  std::vector<std::uint8_t> payload;
  append_u32(payload, ok.vad_frame_length);
  append_u32(payload, ok.max_segment_frames);
  return finish_frame(FrameType::kStreamOk, std::move(payload));
}

std::vector<std::uint8_t> encode_stream_decision(const StreamDecisionFrame& decision) {
  std::vector<std::uint8_t> payload;
  append_decision_fields(payload, decision.decision);
  append_f64(payload, decision.begin_seconds);
  append_f64(payload, decision.end_seconds);
  append_u8(payload, decision.force_closed ? 1 : 0);
  append_u8(payload, 0);
  append_u16(payload, 0);
  return finish_frame(FrameType::kStreamDecision, std::move(payload));
}

std::vector<std::uint8_t> encode_stream_end() {
  return finish_frame(FrameType::kStreamEnd, {});
}

std::vector<std::uint8_t> encode_stream_summary(const StreamSummary& summary) {
  std::vector<std::uint8_t> payload;
  append_u64(payload, summary.frames_streamed);
  append_u32(payload, summary.segments);
  append_u32(payload, summary.force_closed);
  append_u32(payload, summary.discarded);
  append_u32(payload, 0);  // reserved
  return finish_frame(FrameType::kStreamSummary, std::move(payload));
}

std::vector<std::uint8_t> encode_auth(std::string_view tenant_id) {
  if (tenant_id.empty() || tenant_id.size() > kMaxTenantIdBytes) {
    throw ProtocolError("AUTH: tenant id length out of range [1, " +
                        std::to_string(kMaxTenantIdBytes) + "]");
  }
  std::vector<std::uint8_t> payload;
  append_u16(payload, static_cast<std::uint16_t>(tenant_id.size()));
  append_u16(payload, 0);  // reserved
  append_bytes(payload, tenant_id.data(), tenant_id.size());
  return finish_frame(FrameType::kAuth, std::move(payload));
}

std::vector<std::uint8_t> encode_auth_ok(const AuthOk& ok) {
  std::vector<std::uint8_t> payload;
  append_u64(payload, ok.generation);
  append_u8(payload, ok.policy_rule);
  append_u8(payload, 0);   // reserved
  append_u16(payload, 0);  // reserved
  append_u32(payload, ok.quota_per_minute);
  return finish_frame(FrameType::kAuthOk, std::move(payload));
}

std::vector<std::uint8_t> encode_auth_reject(AuthRejectCode code,
                                             std::string_view message) {
  if (message.size() > kMaxErrorMessageBytes) {
    message = message.substr(0, kMaxErrorMessageBytes);
  }
  std::vector<std::uint8_t> payload;
  append_u32(payload, static_cast<std::uint32_t>(code));
  append_u32(payload, static_cast<std::uint32_t>(message.size()));
  append_bytes(payload, message.data(), message.size());
  return finish_frame(FrameType::kAuthReject, std::move(payload));
}

Hello parse_hello(const Frame& frame) {
  expect_type(frame, FrameType::kHello, "HELLO");
  ByteCursor in(frame.payload, "HELLO");
  Hello hello;
  hello.protocol_version = in.read_u32();
  hello.sample_rate_hz = in.read_u32();
  hello.channels = in.read_u16();
  if (in.read_u16() != 0) throw ProtocolError("HELLO: reserved bits set");
  in.finish();
  if (hello.sample_rate_hz < 8000 || hello.sample_rate_hz > 192000) {
    throw ProtocolError("HELLO: sample rate out of range [8000, 192000]");
  }
  if (hello.channels == 0 || hello.channels > 64) {
    throw ProtocolError("HELLO: channel count out of range [1, 64]");
  }
  return hello;
}

HelloOk parse_hello_ok(const Frame& frame) {
  expect_type(frame, FrameType::kHelloOk, "HELLO_OK");
  ByteCursor in(frame.payload, "HELLO_OK");
  HelloOk ok;
  ok.protocol_version = in.read_u32();
  ok.max_chunk_frames = in.read_u32();
  ok.max_utterance_frames = in.read_u32();
  in.finish();
  return ok;
}

AudioChunk parse_audio_chunk(const Frame& frame, std::uint16_t channels) {
  expect_type(frame, FrameType::kAudioChunk, "AUDIO_CHUNK");
  if (channels == 0) throw ProtocolError("AUDIO_CHUNK: zero channel count");
  ByteCursor in(frame.payload, "AUDIO_CHUNK");
  AudioChunk chunk;
  chunk.frames = in.read_u32();
  if (chunk.frames == 0) throw ProtocolError("AUDIO_CHUNK: zero frames");
  const std::size_t samples = static_cast<std::size_t>(chunk.frames) * channels;
  if (in.remaining() != samples * sizeof(float)) {
    throw ProtocolError("AUDIO_CHUNK: payload length does not match frames * "
                        "channels");
  }
  chunk.interleaved.resize(samples);
  in.read_f32_array(chunk.interleaved.data(), samples);
  in.finish();
  // One NaN or Inf would poison every feature of the utterance it lands in
  // (and the classifiers' verdicts only by accident of NaN comparisons).
  for (const float sample : chunk.interleaved) {
    if (!std::isfinite(sample)) throw ProtocolError("AUDIO_CHUNK: non-finite sample");
  }
  return chunk;
}

EndOfUtterance parse_end_of_utterance(const Frame& frame) {
  expect_type(frame, FrameType::kEndOfUtterance, "END_OF_UTTERANCE");
  ByteCursor in(frame.payload, "END_OF_UTTERANCE");
  const std::uint8_t followup = in.read_u8();
  if (followup > 1) throw ProtocolError("END_OF_UTTERANCE: bad followup flag");
  if (in.read_u8() != 0 || in.read_u16() != 0) {
    throw ProtocolError("END_OF_UTTERANCE: reserved bits set");
  }
  in.finish();
  return EndOfUtterance{followup == 1};
}

DecisionFrame parse_decision(const Frame& frame) {
  expect_type(frame, FrameType::kDecision, "DECISION");
  ByteCursor in(frame.payload, "DECISION");
  const DecisionFrame decision = read_decision_fields(in, "DECISION");
  in.finish();
  return decision;
}

ErrorFrame parse_error(const Frame& frame) {
  expect_type(frame, FrameType::kError, "ERROR");
  ByteCursor in(frame.payload, "ERROR");
  ErrorFrame error;
  const std::uint32_t code = in.read_u32();
  if (code < static_cast<std::uint32_t>(ErrorCode::kBadRequest) ||
      code > static_cast<std::uint32_t>(ErrorCode::kInternal)) {
    throw ProtocolError("ERROR: unknown error code");
  }
  error.code = static_cast<ErrorCode>(code);
  const std::uint32_t length = in.read_u32();
  if (length > kMaxErrorMessageBytes || length != in.remaining()) {
    throw ProtocolError("ERROR: bad message length");
  }
  error.message = in.read_chars(length);
  in.finish();
  return error;
}

void parse_stream_start(const Frame& frame) {
  expect_type(frame, FrameType::kStreamStart, "STREAM_START");
  ByteCursor in(frame.payload, "STREAM_START");
  in.finish();  // version-1 payload is empty
}

StreamOk parse_stream_ok(const Frame& frame) {
  expect_type(frame, FrameType::kStreamOk, "STREAM_OK");
  ByteCursor in(frame.payload, "STREAM_OK");
  StreamOk ok;
  ok.vad_frame_length = in.read_u32();
  ok.max_segment_frames = in.read_u32();
  in.finish();
  if (ok.vad_frame_length == 0) {
    throw ProtocolError("STREAM_OK: zero VAD frame length");
  }
  return ok;
}

StreamDecisionFrame parse_stream_decision(const Frame& frame) {
  expect_type(frame, FrameType::kStreamDecision, "STREAM_DECISION");
  ByteCursor in(frame.payload, "STREAM_DECISION");
  StreamDecisionFrame decision;
  decision.decision = read_decision_fields(in, "STREAM_DECISION");
  decision.begin_seconds = in.read_f64();
  decision.end_seconds = in.read_f64();
  const std::uint8_t force = in.read_u8();
  if (force > 1) throw ProtocolError("STREAM_DECISION: bad force_closed flag");
  decision.force_closed = force == 1;
  if (in.read_u8() != 0 || in.read_u16() != 0) {
    throw ProtocolError("STREAM_DECISION: reserved bits set");
  }
  in.finish();
  if (decision.end_seconds < decision.begin_seconds) {
    throw ProtocolError("STREAM_DECISION: segment ends before it begins");
  }
  return decision;
}

void parse_stream_end(const Frame& frame) {
  expect_type(frame, FrameType::kStreamEnd, "STREAM_END");
  ByteCursor in(frame.payload, "STREAM_END");
  in.finish();  // version-1 payload is empty
}

StreamSummary parse_stream_summary(const Frame& frame) {
  expect_type(frame, FrameType::kStreamSummary, "STREAM_SUMMARY");
  ByteCursor in(frame.payload, "STREAM_SUMMARY");
  StreamSummary summary;
  summary.frames_streamed = in.read_u64();
  summary.segments = in.read_u32();
  summary.force_closed = in.read_u32();
  summary.discarded = in.read_u32();
  if (in.read_u32() != 0) throw ProtocolError("STREAM_SUMMARY: reserved bits set");
  in.finish();
  return summary;
}

AuthFrame parse_auth(const Frame& frame) {
  expect_type(frame, FrameType::kAuth, "AUTH");
  ByteCursor in(frame.payload, "AUTH");
  const std::uint16_t length = in.read_u16();
  if (in.read_u16() != 0) throw ProtocolError("AUTH: reserved bits set");
  if (length == 0 || length > kMaxTenantIdBytes || length != in.remaining()) {
    throw ProtocolError("AUTH: bad tenant id length");
  }
  AuthFrame auth;
  auth.tenant_id = in.read_chars(length);
  in.finish();
  return auth;
}

AuthOk parse_auth_ok(const Frame& frame) {
  expect_type(frame, FrameType::kAuthOk, "AUTH_OK");
  ByteCursor in(frame.payload, "AUTH_OK");
  AuthOk ok;
  ok.generation = in.read_u64();
  ok.policy_rule = in.read_u8();
  if (in.read_u8() != 0 || in.read_u16() != 0) {
    throw ProtocolError("AUTH_OK: reserved bits set");
  }
  ok.quota_per_minute = in.read_u32();
  in.finish();
  return ok;
}

AuthReject parse_auth_reject(const Frame& frame) {
  expect_type(frame, FrameType::kAuthReject, "AUTH_REJECT");
  ByteCursor in(frame.payload, "AUTH_REJECT");
  AuthReject reject;
  const std::uint32_t code = in.read_u32();
  if (code < static_cast<std::uint32_t>(AuthRejectCode::kUnknownTenant) ||
      code > static_cast<std::uint32_t>(AuthRejectCode::kTenantsDisabled)) {
    throw ProtocolError("AUTH_REJECT: unknown reject code");
  }
  reject.code = static_cast<AuthRejectCode>(code);
  const std::uint32_t length = in.read_u32();
  if (length > kMaxErrorMessageBytes || length != in.remaining()) {
    throw ProtocolError("AUTH_REJECT: bad message length");
  }
  reject.message = in.read_chars(length);
  in.finish();
  return reject;
}

void FrameReader::feed(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), p, p + size);
  check_header();
}

void FrameReader::check_header() {
  if (buffer_.size() - consumed_ < kFrameHeaderBytes) return;
  const std::uint8_t* header = buffer_.data() + consumed_;
  const std::uint32_t payload_len = load_le<std::uint32_t>(header);
  if (payload_len > max_payload_bytes_) {
    throw ProtocolError("frame: payload length " + std::to_string(payload_len) +
                        " exceeds limit " + std::to_string(max_payload_bytes_));
  }
  if (!frame_type_known(header[4])) {
    throw ProtocolError("frame: unknown type " + std::to_string(header[4]));
  }
  if (header[5] != 0 || header[6] != 0 || header[7] != 0) {
    throw ProtocolError("frame: reserved header bits set");
  }
}

std::optional<Frame> FrameReader::next() {
  if (buffer_.size() - consumed_ < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* header = buffer_.data() + consumed_;
  const std::uint32_t payload_len = load_le<std::uint32_t>(header);
  if (buffer_.size() - consumed_ < kFrameHeaderBytes + payload_len) {
    return std::nullopt;
  }
  Frame frame;
  frame.type = static_cast<FrameType>(header[4]);
  frame.payload.assign(header + kFrameHeaderBytes,
                       header + kFrameHeaderBytes + payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  // Compact once the dead prefix dominates, keeping feed() amortized O(1).
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  // The next header (if complete) must validate before we hand back control,
  // so garbage after a valid frame fails fast.
  check_header();
  return frame;
}

}  // namespace headtalk::serve
