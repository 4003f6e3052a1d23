#include "stream/streaming_detector.h"

#include <algorithm>
#include <stdexcept>

#include "core/scoring_workspace.h"
#include "dsp/simd/dispatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace headtalk::stream {
namespace {

obs::Gauge& metric_vad_active() {
  static obs::Gauge& g = obs::Registry::global().gauge("stream.vad.active");
  return g;
}
obs::Counter& metric_segments() {
  static obs::Counter& c = obs::Registry::global().counter("stream.endpoint.segments");
  return c;
}
obs::Counter& metric_force_closed() {
  static obs::Counter& c =
      obs::Registry::global().counter("stream.endpoint.force_closed");
  return c;
}
obs::Counter& metric_discarded() {
  static obs::Counter& c = obs::Registry::global().counter("stream.endpoint.discarded");
  return c;
}
obs::Histogram& metric_decision_latency() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("stream.decision_latency_seconds");
  return h;
}
obs::Histogram& metric_vad_seconds() {
  // One observation per classified VAD frame.
  static obs::Histogram& h = core::pipeline_stage_histogram("stream.vad_seconds");
  return h;
}
obs::Histogram& metric_accumulate() {
  // Shared with the batch pipeline's accumulation stage: one instrument
  // for "time spent pushing samples through the incremental extractor",
  // however the samples arrived.
  static obs::Histogram& h =
      core::pipeline_stage_histogram("pipeline.stage.incremental_accumulate_seconds");
  return h;
}

}  // namespace

void StreamRing::reset(std::size_t channels, std::size_t capacity_frames) {
  channels_ = channels;
  capacity_ = capacity_frames;
  data_.assign(capacity_ * channels_, 0.0);
  slots_.assign(channels_, nullptr);
  total_ = 0;
}

void StreamRing::push(std::span<const float> interleaved) {
  if (channels_ == 0 || capacity_ == 0) return;
  const float* in = interleaved.data();
  for (std::size_t left = interleaved.size() / channels_; left > 0;) {
    const std::size_t slot = write_slot();
    const std::size_t count = std::min(capacity_ - slot, left);
    for (std::size_t c = 0; c < channels_; ++c) {
      audio::Sample* row = data_.data() + c * capacity_ + slot;
      for (std::size_t f = 0; f < count; ++f) {
        row[f] = static_cast<audio::Sample>(in[f * channels_ + c]);
      }
    }
    in += count * channels_;
    left -= count;
    total_ += count;
  }
}

void StreamRing::push(const audio::MultiBuffer& chunk, std::size_t first,
                      std::size_t count) {
  if (channels_ == 0 || capacity_ == 0) return;
  while (count > 0) {
    const std::size_t slot = write_slot();
    const std::size_t run = std::min(capacity_ - slot, count);
    for (std::size_t c = 0; c < channels_; ++c) {
      std::copy_n(chunk.channel(c).samples().data() + first, run,
                  data_.data() + c * capacity_ + slot);
    }
    first += run;
    count -= run;
    total_ += run;
  }
}

audio::Sample* const* StreamRing::write_slots(std::size_t count) {
  const std::size_t slot = capacity_ == 0 ? 0 : write_slot();
  if (count > capacity_ - slot) {
    throw std::logic_error("StreamRing: a write would wrap the ring");
  }
  for (std::size_t c = 0; c < channels_; ++c) {
    slots_[c] = data_.data() + c * capacity_ + slot;
  }
  return slots_.data();
}

std::array<std::span<const audio::Sample>, 2> StreamRing::runs(std::size_t channel,
                                                               std::uint64_t begin,
                                                               std::uint64_t end) const {
  if (channel >= channels_ || begin < oldest_frame() || begin > end || end > total_) {
    throw std::logic_error("StreamRing: read outside the retained frames");
  }
  const auto frames = static_cast<std::size_t>(end - begin);
  if (frames == 0) return {};
  const audio::Sample* row = data_.data() + channel * capacity_;
  const auto slot = static_cast<std::size_t>(begin % capacity_);
  const std::size_t first = std::min(capacity_ - slot, frames);
  return {std::span<const audio::Sample>(row + slot, first),
          std::span<const audio::Sample>(row, frames - first)};
}

StreamingDetector::StreamingDetector(const core::HeadTalkPipeline& pipeline,
                                     std::size_t channels, double sample_rate,
                                     StreamingDetectorConfig config)
    : pipeline_(pipeline),
      config_(config),
      vad_(config.vad, sample_rate),
      endpointer_(config.endpoint) {
  if (channels == 0) throw std::invalid_argument("StreamingDetector: zero channels");
  // The oldest sample still unfed trails the end of the newest classified
  // VAD frame by at most: pre-roll + onset frames when an onset confirms
  // (the segment reaches back to its pre-roll, nothing of it fed yet), or
  // hangover - post-roll frames when speech resumes inside a gap (the
  // feed stopped at last_active + 1 + post-roll). One more frame covers
  // the VAD's partial frame, so the bound holds wherever a slice ends.
  const EndpointerConfig& endpoint = endpointer_.config();
  const std::size_t lag_frames =
      std::max(endpoint.pre_roll_frames + endpoint.onset_frames,
               endpoint.hangover_frames - endpoint.post_roll_frames);
  ring_.reset(channels, (lag_frames + 1) * vad_.frame_length());
  feed_channels_.assign(channels, nullptr);
  vad_frames_.reserve(1);
}

std::size_t StreamingDetector::slice_frames() const noexcept {
  const std::size_t frame_len = vad_.frame_length();
  return frame_len - static_cast<std::size_t>(ring_.total_frames() % frame_len);
}

std::vector<DecisionEvent> StreamingDetector::push_interleaved(
    std::span<const float> interleaved) {
  const std::size_t channels = ring_.channels();
  if (channels == 0 || interleaved.size() % channels != 0) {
    throw std::invalid_argument(
        "StreamingDetector: sample count is not a multiple of the channel count");
  }
  const std::size_t frames = interleaved.size() / channels;
  std::vector<DecisionEvent> out;
  for (std::size_t first = 0; first < frames;) {
    const std::size_t count = std::min(slice_frames(), frames - first);
    ring_.push(interleaved.subspan(first * channels, count * channels));
    advance(count, out);
    first += count;
  }
  return out;
}

std::vector<DecisionEvent> StreamingDetector::push(const audio::MultiBuffer& chunk) {
  if (chunk.channel_count() != ring_.channels()) {
    throw std::invalid_argument("StreamingDetector: chunk channel count mismatch");
  }
  if (chunk.sample_rate() != vad_.sample_rate()) {
    throw std::invalid_argument("StreamingDetector: chunk sample rate mismatch");
  }
  std::vector<DecisionEvent> out;
  for (std::size_t first = 0; first < chunk.frames();) {
    const std::size_t count = std::min(slice_frames(), chunk.frames() - first);
    ring_.push(chunk, first, count);
    advance(count, out);
    first += count;
  }
  return out;
}

bool StreamingDetector::push_f32le(const std::uint8_t* payload, std::size_t frames,
                                   std::vector<DecisionEvent>& out) {
  const auto& decode = dsp::simd::kernels().decode_f32;
  const std::size_t channels = ring_.channels();
  // The kernel checks what it decodes and writes nothing when a sample is
  // not finite. A chunk of one slice is checked by its one decode; a
  // longer one is checked whole first, so a bad sample in a later slice
  // still leaves the earlier ones unwritten and unclassified.
  if (frames > slice_frames() && !decode(payload, frames, channels, nullptr, nullptr)) {
    return false;
  }
  const std::size_t stride = channels * sizeof(float);
  for (std::size_t first = 0; first < frames;) {
    const std::size_t count = std::min(slice_frames(), frames - first);
    // A slice ends on a VAD frame boundary and the capacity is a whole
    // number of VAD frames, so its slots never wrap.
    if (!decode(payload + first * stride, count, channels, ring_.write_slots(count),
                nullptr)) {
      return false;  // only the first slice of a one-slice chunk gets here
    }
    ring_.commit(count);
    advance(count, out);
    first += count;
  }
  return true;
}

std::vector<DecisionEvent> StreamingDetector::flush() {
  std::vector<DecisionEvent> out;
  if (const auto segment = endpointer_.flush()) {
    metric_segments().increment();
    out.push_back(score_segment(*segment));
  }
  metric_vad_active().set(0.0);
  return out;
}

void StreamingDetector::advance(std::size_t count, std::vector<DecisionEvent>& out) {
  const std::uint64_t end = ring_.total_frames();
  // A slice lies inside one VAD frame, which the ring never splits: one run.
  const std::span<const audio::Sample> reference = ring_.runs(0, end - count, end)[0];
  vad_frames_.clear();
  obs::Timer vad_timer;
  vad_.push(reference, vad_frames_);
  if (!vad_frames_.empty()) metric_vad_seconds().observe(vad_timer.stop());
  for (const VadFrame& frame : vad_frames_) {
    metric_vad_active().set(frame.active ? 1.0 : 0.0);
    const auto segment = endpointer_.on_frame(frame.active);
    if (segment) {
      if (segment->force_closed) metric_force_closed().increment();
      metric_segments().increment();
      out.push_back(score_segment(*segment));
      continue;
    }
    if (config_.mode != core::VaMode::kHeadTalk) continue;
    if (endpointer_.segment_open()) {
      // Incremental accumulation: push this frame's worth of final segment
      // audio through the extractor now, so the eventual close pays only
      // the residual feed plus the O(1) finalize.
      obs::Timer accumulate(&metric_accumulate());
      if (!op_open_) {
        open_op(endpointer_.open_begin() *
                static_cast<std::uint64_t>(vad_.frame_length()));
      }
      feed_op_to(feed_target());
    } else if (op_open_ && !endpointer_.in_utterance()) {
      // The open segment was discarded as a glitch (no close emitted):
      // abandon the accumulated state. begin() re-arms the op fully, so
      // nothing else needs unwinding.
      op_open_ = false;
    }
  }
  // Discards happen inside the endpointer; mirror its counter into obs so
  // dashboards see glitch rejections without polling the detector.
  while (discards_reported_ < endpointer_.discarded()) {
    metric_discarded().increment();
    ++discards_reported_;
  }
}

std::uint64_t StreamingDetector::feed_target() const {
  const auto frame_len = static_cast<std::uint64_t>(vad_.frame_length());
  // The close end is bounded by last_active + 1 + post_roll whatever
  // happens next (a later active frame only moves the bound forward), so
  // audio before that bound is certainly part of the segment.
  const std::uint64_t bound =
      endpointer_.last_active() + 1 + endpointer_.config().post_roll_frames;
  return std::min<std::uint64_t>(endpointer_.frames_seen(), bound) * frame_len;
}

core::IncrementalExtractor& StreamingDetector::op() noexcept {
  return workspace_ != nullptr ? workspace_->incremental() : own_op_;
}

void StreamingDetector::open_op(std::uint64_t begin) {
  if (workspace_ != nullptr) workspace_->note_use();
  op().begin(pipeline_.incremental_config(), ring_.channels(), vad_.sample_rate());
  op_open_ = true;
  op_fed_end_ = begin;
}

void StreamingDetector::feed_op_to(std::uint64_t target) {
  if (target <= op_fed_end_) return;
  // Two pushes when the range wraps the ring: the operator's chunking
  // invariance makes them one.
  for (std::size_t run = 0; run < 2; ++run) {
    std::size_t frames = 0;
    for (std::size_t c = 0; c < ring_.channels(); ++c) {
      const std::span<const audio::Sample> samples = ring_.runs(c, op_fed_end_, target)[run];
      feed_channels_[c] = samples.data();
      frames = samples.size();
    }
    if (frames != 0) op().push(feed_channels_.data(), frames);
  }
  op_fed_end_ = target;
}

DecisionEvent StreamingDetector::score_segment(const Segment& segment) {
  obs::ScopedSpan span("stream.score_segment");
  obs::Timer timer(&metric_decision_latency());

  const auto frame_len = static_cast<std::uint64_t>(vad_.frame_length());
  DecisionEvent event;
  event.begin_frame = segment.begin_frame * frame_len;
  event.end_frame = segment.end_frame * frame_len;
  event.force_closed = segment.force_closed;
  const double fs = vad_.sample_rate();
  event.begin_seconds = static_cast<double>(event.begin_frame) / fs;
  event.end_seconds = static_cast<double>(event.end_frame) / fs;

  if (config_.mode == core::VaMode::kHeadTalk) {
    // The segment's audio is (mostly) already inside the incremental
    // extractor; feed whatever the close added beyond the last per-frame
    // target. The decision latency this timer measures is that residual
    // work plus the finalize ladder — O(1) in segment length.
    if (!op_open_) open_op(event.begin_frame);
    feed_op_to(event.end_frame);
    op_open_ = false;
  }
  event.result = pipeline_.finalize_segment(
      op(), config_.mode, /*followup=*/false, session_open_,
      config_.capture_features ? &event.features : nullptr);
  session_open_ = event.result.session_open_after;
  event.latency_seconds = timer.stop();
  return event;
}

}  // namespace headtalk::stream
