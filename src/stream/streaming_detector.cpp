#include "stream/streaming_detector.h"

#include <algorithm>
#include <stdexcept>

#include "core/scoring_workspace.h"
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
obs::Histogram& metric_accumulate() {
  // Shared with the batch pipeline's accumulation stage: one instrument
  // for "time spent pushing samples through the incremental extractor",
  // however the samples arrived.
  static obs::Histogram& h =
      core::pipeline_stage_histogram("pipeline.stage.incremental_accumulate_seconds");
  return h;
}

}  // namespace

void StreamRing::reset(std::size_t channels, std::size_t capacity_frames,
                       double sample_rate) {
  channels_ = channels;
  capacity_ = capacity_frames;
  sample_rate_ = sample_rate;
  data_.assign(capacity_ * channels_, 0.0);
  total_ = 0;
  first_ = 0;
}

void StreamRing::seek(std::uint64_t frame) {
  if (total_ != first_) {
    throw std::logic_error("StreamRing: seek on a non-empty ring");
  }
  total_ = frame;
  first_ = frame;
}

void StreamRing::push(std::span<const float> interleaved) {
  if (channels_ == 0 || capacity_ == 0) return;
  const std::size_t frames = interleaved.size() / channels_;
  for (std::size_t f = 0; f < frames; ++f) {
    const std::size_t slot = static_cast<std::size_t>(total_ % capacity_);
    for (std::size_t c = 0; c < channels_; ++c) {
      data_[slot * channels_ + c] =
          static_cast<audio::Sample>(interleaved[f * channels_ + c]);
    }
    ++total_;
  }
}

void StreamRing::push(const audio::MultiBuffer& chunk) {
  if (channels_ == 0 || capacity_ == 0) return;
  for (std::size_t f = 0; f < chunk.frames(); ++f) {
    const std::size_t slot = static_cast<std::size_t>(total_ % capacity_);
    for (std::size_t c = 0; c < channels_; ++c) {
      data_[slot * channels_ + c] = chunk.channel(c)[f];
    }
    ++total_;
  }
}

audio::MultiBuffer StreamRing::extract(std::uint64_t begin, std::uint64_t end) const {
  audio::MultiBuffer capture;
  extract_into(begin, end, capture);
  return capture;
}

void StreamRing::extract_into(std::uint64_t begin, std::uint64_t end,
                              audio::MultiBuffer& out) const {
  begin = std::max(begin, oldest_frame());
  end = std::min<std::uint64_t>(end, total_);
  if (begin > end) begin = end;
  const auto frames = static_cast<std::size_t>(end - begin);
  if (out.channel_count() != channels_ || out.sample_rate() != sample_rate_) {
    out = audio::MultiBuffer(channels_, frames, sample_rate_);
  } else {
    for (std::size_t c = 0; c < channels_; ++c) out.channel(c).resize(frames);
  }
  for (std::uint64_t f = begin; f < end; ++f) {
    const std::size_t slot = static_cast<std::size_t>(f % capacity_);
    for (std::size_t c = 0; c < channels_; ++c) {
      out.channel(c)[static_cast<std::size_t>(f - begin)] =
          data_[slot * channels_ + c];
    }
  }
}

StreamingDetector::StreamingDetector(const core::HeadTalkPipeline& pipeline,
                                     std::size_t channels, double sample_rate,
                                     StreamingDetectorConfig config)
    : pipeline_(pipeline),
      config_(config),
      vad_(config.vad, sample_rate),
      endpointer_(config.endpoint) {
  if (channels == 0) throw std::invalid_argument("StreamingDetector: zero channels");
  // Worst-case extraction span: a force-closed segment of max length (its
  // pre-roll is inside that bound), plus the margin covering chunk lag.
  const std::size_t capacity =
      endpointer_.config().max_utterance_frames * vad_.frame_length() +
      config_.ring_margin_frames;
  ring_.reset(channels, capacity, sample_rate);
  ring_.seek(config_.start_frame);
}

std::vector<DecisionEvent> StreamingDetector::push_interleaved(
    std::span<const float> interleaved) {
  if (ring_.channels() == 0 || interleaved.size() % ring_.channels() != 0) {
    throw std::invalid_argument(
        "StreamingDetector: sample count is not a multiple of the channel count");
  }
  ring_.push(interleaved);
  const std::size_t frames = interleaved.size() / ring_.channels();
  reference_.resize(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    reference_[f] = static_cast<audio::Sample>(interleaved[f * ring_.channels()]);
  }
  std::vector<DecisionEvent> out;
  advance(reference_, out);
  return out;
}

std::vector<DecisionEvent> StreamingDetector::push(const audio::MultiBuffer& chunk) {
  if (chunk.channel_count() != ring_.channels()) {
    throw std::invalid_argument("StreamingDetector: chunk channel count mismatch");
  }
  if (chunk.sample_rate() != vad_.sample_rate()) {
    throw std::invalid_argument("StreamingDetector: chunk sample rate mismatch");
  }
  ring_.push(chunk);
  std::vector<DecisionEvent> out;
  advance(chunk.channel(0).samples(), out);
  return out;
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

void StreamingDetector::advance(std::span<const audio::Sample> reference,
                                std::vector<DecisionEvent>& out) {
  const auto vad_frames = vad_.push(reference);
  for (const VadFrame& frame : vad_frames) {
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
        open_op(config_.start_frame +
                endpointer_.open_begin() *
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
  const std::uint64_t frames = std::min<std::uint64_t>(endpointer_.frames_seen(), bound);
  return std::min<std::uint64_t>(config_.start_frame + frames * frame_len,
                                 ring_.total_frames());
}

core::IncrementalExtractor& StreamingDetector::op() noexcept {
  return workspace_ != nullptr ? workspace_->incremental() : own_op_;
}

void StreamingDetector::open_op(std::uint64_t begin) {
  if (workspace_ != nullptr) workspace_->note_use();
  op().begin(pipeline_.incremental_config(), ring_.channels(), vad_.sample_rate());
  op_open_ = true;
  op_truncated_ = 0;
  op_fed_end_ = begin;
  const std::uint64_t oldest = ring_.oldest_frame();
  if (op_fed_end_ < oldest) {
    op_truncated_ = oldest - op_fed_end_;
    op_fed_end_ = oldest;
  }
}

void StreamingDetector::feed_op_to(std::uint64_t target) {
  if (!op_open_) return;
  const std::uint64_t oldest = ring_.oldest_frame();
  if (op_fed_end_ < oldest) {
    // Samples between the last feed and now were overwritten (a chunk far
    // larger than the ring margin); count them and continue from the
    // oldest survivor, exactly like the batch extraction clamp.
    op_truncated_ += oldest - op_fed_end_;
    op_fed_end_ = oldest;
  }
  if (target <= op_fed_end_) return;
  ring_.extract_into(op_fed_end_, target, feed_buffer_);
  op().push(feed_buffer_);
  op_fed_end_ = target;
}

DecisionEvent StreamingDetector::score_segment(const Segment& segment) {
  obs::ScopedSpan span("stream.score_segment");
  obs::Timer timer(&metric_decision_latency());

  const auto frame_len = static_cast<std::uint64_t>(vad_.frame_length());
  DecisionEvent event;
  event.begin_frame = config_.start_frame + segment.begin_frame * frame_len;
  event.end_frame =
      std::min<std::uint64_t>(config_.start_frame + segment.end_frame * frame_len,
                              ring_.total_frames());
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
    event.truncated_frames = op_truncated_;
    op_open_ = false;
  } else {
    // Normal/Mute verdicts read no features; nothing was fed.
    const std::uint64_t oldest = ring_.oldest_frame();
    if (event.begin_frame < oldest) {
      event.truncated_frames = oldest - event.begin_frame;
    }
  }
  event.result = pipeline_.finalize_segment(
      op(), config_.mode, /*followup=*/false, session_open_,
      config_.capture_features ? &event.features : nullptr);
  session_open_ = event.result.session_open_after;
  event.latency_seconds = timer.stop();
  return event;
}

}  // namespace headtalk::stream
