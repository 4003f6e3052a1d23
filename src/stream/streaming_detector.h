// Online detection: continuous multichannel audio in, scored decisions out.
//
// The StreamingDetector is the layer the always-listening deployment was
// missing between raw audio and the resident HeadTalkPipeline: chunks of
// any size go into an absolute-indexed multichannel ring, the reference
// channel runs through the frame-level Vad, the Endpointer turns frame
// labels into utterance segments, the open segment's audio is fed to an
// incremental operator as it is confirmed, and each close runs the
// pipeline's finalize_segment — emitting one DecisionEvent per utterance
// with sample-accurate segment timestamps. The HeadTalk open-session flag
// carries across segments exactly as it does across utterances of one
// serve connection.
//
// Not thread-safe: one detector per stream, driven from one thread. The
// pipeline is shared and only its const scoring entry point is used.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "audio/sample_buffer.h"
#include "core/pipeline.h"
#include "stream/endpointer.h"
#include "stream/vad.h"

namespace headtalk::stream {

struct StreamingDetectorConfig {
  VadConfig vad{};
  EndpointerConfig endpoint{};
  /// Mode segments are scored under (HeadTalk in production).
  core::VaMode mode = core::VaMode::kHeadTalk;
  /// Extra ring capacity (sample frames) beyond the worst-case segment
  /// span, absorbing the lag between a chunk landing in the ring and its
  /// VAD frames being classified. Chunks larger than this margin can cost
  /// a closing segment its oldest samples (counted as truncated_frames).
  std::size_t ring_margin_frames = 48000;
  /// Copy each segment's feature vectors into DecisionEvent::features
  /// (needed by tenant-scoped serving for speaker-identity matching).
  bool capture_features = false;
  /// Absolute sample-frame index of the first frame this detector will be
  /// fed — a resumed or sharded stream keeps globally consistent event
  /// timestamps by passing its offset here. All DecisionEvent frame fields
  /// (and seconds, computed from them) are absolute under this origin; the
  /// arithmetic is 64-bit throughout, so origins past 2^32 are exact.
  std::uint64_t start_frame = 0;
};

/// One scored utterance detected in the stream.
struct DecisionEvent {
  core::PipelineResult result;
  std::uint64_t begin_frame = 0;  ///< absolute sample frame (inclusive)
  std::uint64_t end_frame = 0;    ///< absolute sample frame (exclusive)
  double begin_seconds = 0.0;
  double end_seconds = 0.0;
  bool force_closed = false;
  /// Sample frames the segment lost to ring overwrite (0 in any sanely
  /// sized configuration).
  std::uint64_t truncated_frames = 0;
  /// Endpoint close → decision available (extraction + scoring).
  double latency_seconds = 0.0;
  /// Feature vectors of the scoring pass; only filled when the detector's
  /// config sets capture_features (empty vectors otherwise).
  core::FeatureCapture features;
};

/// Absolute-indexed multichannel sample ring: frame `n` of the stream
/// lives at slot `n % capacity` until overwritten, so a closing segment is
/// extracted by its absolute [begin, end) without any index bookkeeping at
/// the call site. Samples are stored interleaved.
class StreamRing {
 public:
  void reset(std::size_t channels, std::size_t capacity_frames, double sample_rate);

  /// Re-origins an empty ring: the next pushed frame gets absolute index
  /// `frame`. Only valid before any push (or straight after reset).
  void seek(std::uint64_t frame);

  /// `interleaved.size()` must be a multiple of the channel count.
  void push(std::span<const float> interleaved);
  void push(const audio::MultiBuffer& chunk);

  /// Deinterleaves [begin, end) into a capture; `begin` is clamped to the
  /// oldest retained frame (the caller sees the loss via oldest_frame()).
  [[nodiscard]] audio::MultiBuffer extract(std::uint64_t begin, std::uint64_t end) const;

  /// extract() into a caller-owned capture, reusing its channel storage —
  /// the streaming feed path calls this once per VAD frame, so the steady
  /// state is allocation-free.
  void extract_into(std::uint64_t begin, std::uint64_t end,
                    audio::MultiBuffer& out) const;

  [[nodiscard]] std::uint64_t total_frames() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t oldest_frame() const noexcept {
    return total_ > first_ + capacity_ ? total_ - capacity_ : first_;
  }
  [[nodiscard]] std::size_t capacity_frames() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }

 private:
  std::vector<audio::Sample> data_;  ///< capacity_ * channels_, interleaved
  std::size_t channels_ = 0;
  std::size_t capacity_ = 0;
  std::uint64_t total_ = 0;  ///< absolute index one past the newest frame
  std::uint64_t first_ = 0;  ///< absolute index of the first frame ever pushed
  double sample_rate_ = audio::kDefaultSampleRate;
};

class StreamingDetector {
 public:
  /// The pipeline outlives the detector; only const scoring is used.
  StreamingDetector(const core::HeadTalkPipeline& pipeline, std::size_t channels,
                    double sample_rate, StreamingDetectorConfig config = {});

  /// Optional per-thread scoring scratch (see core/scoring_workspace.h):
  /// open segments accumulate in its incremental operator instead of the
  /// detector's own, so nothing else may use that operator until the
  /// stream is flushed. Attach before the first push; the workspace must
  /// outlive the detector and belong to the driving thread.
  void set_workspace(core::ScoringWorkspace* workspace) noexcept {
    workspace_ = workspace;
  }

  /// Feeds one chunk of interleaved float32 frames (the serve wire format);
  /// returns the decisions whose segments closed inside this chunk.
  std::vector<DecisionEvent> push_interleaved(std::span<const float> interleaved);

  /// Same, from a deinterleaved capture (local tools). Channel count and
  /// sample rate must match the detector's.
  std::vector<DecisionEvent> push(const audio::MultiBuffer& chunk);

  /// End of stream: closes and scores any open segment.
  std::vector<DecisionEvent> flush();

  /// True while an utterance is open — a drain should wait for it.
  [[nodiscard]] bool in_utterance() const noexcept { return endpointer_.in_utterance(); }

  [[nodiscard]] std::uint64_t frames_streamed() const noexcept {
    return ring_.total_frames();
  }
  [[nodiscard]] std::uint64_t segments() const noexcept { return endpointer_.segments(); }
  [[nodiscard]] std::uint64_t force_closed() const noexcept {
    return endpointer_.force_closed();
  }
  [[nodiscard]] std::uint64_t discarded() const noexcept {
    return endpointer_.discarded();
  }
  /// HeadTalk open-session flag after the last decision.
  [[nodiscard]] bool session_open() const noexcept { return session_open_; }
  [[nodiscard]] double sample_rate() const noexcept { return vad_.sample_rate(); }
  [[nodiscard]] std::size_t channels() const noexcept { return ring_.channels(); }
  [[nodiscard]] const Vad& vad() const noexcept { return vad_; }
  [[nodiscard]] const StreamingDetectorConfig& config() const noexcept { return config_; }

 private:
  /// Runs VAD + endpointing over reference-channel samples already pushed
  /// to the ring, scoring every segment that closes. In HeadTalk mode the
  /// open segment's samples are fed to the incremental extractor once per
  /// VAD frame, so a close only pays the residual feed + finalize.
  void advance(std::span<const audio::Sample> reference,
               std::vector<DecisionEvent>& out);
  [[nodiscard]] DecisionEvent score_segment(const Segment& segment);

  /// The workspace's operator when one is attached, the detector's own
  /// otherwise.
  [[nodiscard]] core::IncrementalExtractor& op() noexcept;
  /// Opens the incremental extractor for a segment starting at absolute
  /// sample frame `begin` (clamped to the ring's oldest retained frame;
  /// the loss accumulates in op_truncated_).
  void open_op(std::uint64_t begin);
  /// Feeds ring samples [fed_end_, target) to the open extractor.
  void feed_op_to(std::uint64_t target);
  /// Absolute sample frame up to which the open segment may be fed now:
  /// the close end can never exceed last_active + 1 + post_roll frames, so
  /// everything before that bound is final segment audio already.
  [[nodiscard]] std::uint64_t feed_target() const;

  const core::HeadTalkPipeline& pipeline_;
  core::ScoringWorkspace* workspace_ = nullptr;  ///< not owned; may be null
  StreamingDetectorConfig config_;
  Vad vad_;
  Endpointer endpointer_;
  StreamRing ring_;
  std::vector<audio::Sample> reference_;  ///< channel-0 scratch for one chunk
  std::uint64_t discards_reported_ = 0;   ///< endpointer discards mirrored to obs
  bool session_open_ = false;
  /// Incremental per-segment extraction state (HeadTalk mode). The op is
  /// begun when the endpointer confirms a segment, fed frame by frame
  /// while the segment is open, finalized (or abandoned, on a discard)
  /// when it ends.
  core::IncrementalExtractor own_op_;  ///< used only without a workspace
  bool op_open_ = false;
  std::uint64_t op_fed_end_ = 0;     ///< absolute sample frame fed so far
  std::uint64_t op_truncated_ = 0;   ///< frames the open segment lost to overwrite
  audio::MultiBuffer feed_buffer_;   ///< reused per-frame extraction scratch
};

}  // namespace headtalk::stream
