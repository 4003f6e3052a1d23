// Online detection: continuous multichannel audio in, scored decisions out.
//
// The StreamingDetector is the layer the always-listening deployment was
// missing between raw audio and the resident HeadTalkPipeline: chunks of
// any size are cut into slices of at most one VAD frame, each slice is
// written once, into a per-channel ring (the wire payload decoded straight
// into the ring's slots), the frame-level Vad reads the slice's reference
// channel in place there, the Endpointer turns frame labels into
// utterance segments, the open segment's audio is fed to an incremental
// operator from the ring's rows as it is confirmed, and each close runs
// the pipeline's finalize_segment — emitting one DecisionEvent per
// utterance with sample-accurate segment timestamps. The HeadTalk
// open-session flag carries across segments exactly as it does across
// utterances of one serve connection.
//
// The ring holds only audio the operator has not consumed yet: its
// capacity follows from the endpointer config and the VAD frame length
// (see StreamingDetector's constructor), never from the utterance length,
// and slicing keeps any chunk size inside it.
//
// Not thread-safe: one detector per stream, driven from one thread. The
// pipeline is shared and only its const scoring entry point is used.
#pragma once

#include <array>
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
  /// Copy each segment's feature vectors into DecisionEvent::features
  /// (needed by tenant-scoped serving for speaker-identity matching).
  bool capture_features = false;
};

/// One scored utterance detected in the stream.
struct DecisionEvent {
  core::PipelineResult result;
  std::uint64_t begin_frame = 0;  ///< absolute sample frame (inclusive)
  std::uint64_t end_frame = 0;    ///< absolute sample frame (exclusive)
  double begin_seconds = 0.0;
  double end_seconds = 0.0;
  bool force_closed = false;
  /// Endpoint close → decision available (extraction + scoring).
  double latency_seconds = 0.0;
  /// Feature vectors of the scoring pass; only filled when the detector's
  /// config sets capture_features (empty vectors otherwise).
  core::FeatureCapture features;
};

/// Absolute-indexed multichannel sample ring: frame `n` of the stream
/// lives at slot `n % capacity` until overwritten, so the operator's feed
/// reads by absolute [begin, end) without any index bookkeeping at the
/// call site. Samples are stored one row per channel (`capacity` samples
/// each), so a run of frames is a contiguous span of every channel.
class StreamRing {
 public:
  void reset(std::size_t channels, std::size_t capacity_frames);

  /// `interleaved.size()` must be a multiple of the channel count; a push
  /// longer than the capacity keeps its newest frames.
  void push(std::span<const float> interleaved);
  /// Pushes frames [first, first + count) of a deinterleaved chunk.
  void push(const audio::MultiBuffer& chunk, std::size_t first, std::size_t count);

  /// Per-channel pointers to the slots of the next `count` frames, to be
  /// written in place and then published with commit(count). The frames
  /// must not wrap: count <= capacity - (total_frames() % capacity).
  /// Throws std::logic_error otherwise.
  [[nodiscard]] audio::Sample* const* write_slots(std::size_t count);
  void commit(std::size_t count) noexcept { total_ += count; }

  /// Channel `channel`'s samples of frames [begin, end): one run, or two
  /// when the range wraps the ring (oldest first; the second is empty
  /// otherwise). Valid until the next write. Throws std::logic_error
  /// for a channel out of range, or unless oldest_frame() <= begin <=
  /// end <= total_frames(): a read of overwritten audio is a sizing bug.
  [[nodiscard]] std::array<std::span<const audio::Sample>, 2> runs(
      std::size_t channel, std::uint64_t begin, std::uint64_t end) const;

  [[nodiscard]] std::uint64_t total_frames() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t oldest_frame() const noexcept {
    return total_ > capacity_ ? total_ - capacity_ : 0;
  }
  [[nodiscard]] std::size_t capacity_frames() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }

 private:
  /// Slot of the next frame written.
  [[nodiscard]] std::size_t write_slot() const noexcept {
    return static_cast<std::size_t>(total_ % capacity_);
  }

  std::vector<audio::Sample> data_;  ///< [channel][capacity_]
  std::vector<audio::Sample*> slots_;  ///< write_slots()'s per-channel pointers
  std::size_t channels_ = 0;
  std::size_t capacity_ = 0;
  std::uint64_t total_ = 0;  ///< absolute index one past the newest frame
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

  /// Feeds one chunk of interleaved float32 frames of any size; returns
  /// the decisions whose segments closed inside this chunk. Events do not
  /// depend on how the stream was chunked.
  std::vector<DecisionEvent> push_interleaved(std::span<const float> interleaved);

  /// Same, from the serve wire's AUDIO_CHUNK samples: `frames` frames of
  /// channels() little-endian float32 samples, frame-major, at `payload`,
  /// decoded by the dsp decode kernel straight into the ring; the
  /// decisions are appended to `out`. Returns false, having changed
  /// nothing (ring, VAD, endpointer, operator), when any sample of the
  /// chunk is NaN or infinite. Events equal push_interleaved's.
  [[nodiscard]] bool push_f32le(const std::uint8_t* payload, std::size_t frames,
                                std::vector<DecisionEvent>& out);

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
  /// Ring capacity in sample frames (fixed at construction).
  [[nodiscard]] std::size_t ring_capacity() const noexcept {
    return ring_.capacity_frames();
  }

 private:
  /// Frames the next slice may hold: up to the end of the VAD's partial
  /// frame, so each slice completes at most one VAD frame.
  [[nodiscard]] std::size_t slice_frames() const noexcept;
  /// Runs VAD + endpointing over the slice of `count` frames just
  /// committed to the ring (the VAD reads its reference channel in place),
  /// scoring every segment that closes. In HeadTalk mode the open
  /// segment's samples are fed to the incremental extractor once per VAD
  /// frame, so a close only pays the residual feed + finalize.
  void advance(std::size_t count, std::vector<DecisionEvent>& out);
  [[nodiscard]] DecisionEvent score_segment(const Segment& segment);

  /// The workspace's operator when one is attached, the detector's own
  /// otherwise.
  [[nodiscard]] core::IncrementalExtractor& op() noexcept;
  /// Opens the incremental extractor for a segment starting at absolute
  /// sample frame `begin`.
  void open_op(std::uint64_t begin);
  /// Feeds ring samples [fed_end_, target) to the open extractor, in place:
  /// one push per ring run (two when the range wraps).
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
  std::vector<VadFrame> vad_frames_;      ///< frames one slice completed (0 or 1)
  std::uint64_t discards_reported_ = 0;   ///< endpointer discards mirrored to obs
  bool session_open_ = false;
  /// Incremental per-segment extraction state (HeadTalk mode). The op is
  /// begun when the endpointer confirms a segment, fed frame by frame
  /// while the segment is open, finalized (or abandoned, on a discard)
  /// when it ends.
  core::IncrementalExtractor own_op_;  ///< used only without a workspace
  bool op_open_ = false;
  std::uint64_t op_fed_end_ = 0;  ///< absolute sample frame fed so far
  std::vector<const audio::Sample*> feed_channels_;  ///< one ring run, per channel
};

}  // namespace headtalk::stream
