#include "core/pipeline.h"

#include <stdexcept>

#include "core/scoring_workspace.h"
#include "obs/exemplar.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace headtalk::core {
namespace {

// Registry lookups happen once; the references stay valid for the process
// lifetime (the registry never destroys instruments).
void count_decision(Decision decision) {
  static obs::Counter& accepted =
      obs::Registry::global().counter("pipeline.decision.accepted");
  static obs::Counter& muted =
      obs::Registry::global().counter("pipeline.decision.rejected_muted");
  static obs::Counter& replay =
      obs::Registry::global().counter("pipeline.decision.rejected_replay");
  static obs::Counter& not_facing =
      obs::Registry::global().counter("pipeline.decision.rejected_not_facing");
  switch (decision) {
    case Decision::kAccepted:
      accepted.increment();
      break;
    case Decision::kRejectedMuted:
      muted.increment();
      break;
    case Decision::kRejectedReplay:
      replay.increment();
      break;
    case Decision::kRejectedNotFacing:
      not_facing.increment();
      break;
  }
}

// Bucket bounds for the per-stage latency histograms: 25 µs .. ~3.3 s,
// ×2 per bucket — fine enough that a 3 ms warm orientation stage moving
// by ~20% lands in a different bucket (the default seconds bounds are ×3
// and would smear that). Documented in README "Observability".
std::vector<double> stage_bounds() {
  std::vector<double> bounds;
  for (double edge = 25e-6; edge < 4.0; edge *= 2.0) bounds.push_back(edge);
  return bounds;
}

obs::Histogram& stage_histogram(const char* name) {
  return obs::Registry::global().histogram(name, stage_bounds());
}

// Per-utterance stage record: every stage that ran, with start/duration in
// trace microseconds. Thread-local so the const scoring path can fill it
// without widening any signature; score_capture resets it per utterance
// and offers it to the slow-utterance exemplar ring.
struct StageRecord {
  static constexpr std::size_t kMaxStages = 5;
  obs::ExemplarSpan spans[kMaxStages];
  std::size_t count = 0;

  void add(const char* name, std::uint64_t start_us, std::uint64_t duration_us) {
    if (count < kMaxStages) spans[count++] = {name, start_us, duration_us};
  }
  [[nodiscard]] std::span<const obs::ExemplarSpan> view() const {
    return {spans, count};
  }
};

thread_local StageRecord t_stages;

/// Times one pipeline stage into (a) the span tracer, (b) the stage's
/// live histogram, and (c) the thread's StageRecord — all three read the
/// same clock interval, so the trace, the scrape, and the exemplar can
/// never disagree about where the time went.
class StageTimer {
 public:
  StageTimer(const char* name, obs::Histogram& sink) noexcept
      : name_(name), sink_(sink), span_(name), start_us_(obs::now_micros()) {}
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() {
    const std::uint64_t duration_us = obs::now_micros() - start_us_;
    sink_.observe(static_cast<double>(duration_us) * 1e-6);
    t_stages.add(name_, start_us_, duration_us);
  }

 private:
  const char* name_;
  obs::Histogram& sink_;
  obs::ScopedSpan span_;
  std::uint64_t start_us_;
};

}  // namespace

std::string_view va_mode_name(VaMode mode) {
  switch (mode) {
    case VaMode::kNormal:
      return "normal";
    case VaMode::kMute:
      return "mute";
    case VaMode::kHeadTalk:
      return "headtalk";
  }
  return "?";
}

std::string_view decision_name(Decision decision) {
  switch (decision) {
    case Decision::kAccepted:
      return "accepted";
    case Decision::kRejectedMuted:
      return "rejected-muted";
    case Decision::kRejectedReplay:
      return "rejected-replay";
    case Decision::kRejectedNotFacing:
      return "rejected-not-facing";
  }
  return "?";
}

HeadTalkPipeline::HeadTalkPipeline(OrientationClassifier orientation,
                                   LivenessDetector liveness, PipelineConfig config)
    : orientation_(std::move(orientation)),
      liveness_(std::move(liveness)),
      config_(std::move(config)) {
  if (!orientation_.trained() || !liveness_.trained()) {
    throw std::invalid_argument("HeadTalkPipeline: both detectors must be trained");
  }
  incremental_config_.orientation = config_.orientation_features;
  incremental_config_.liveness = config_.liveness_features;
}

void HeadTalkPipeline::set_mode(VaMode mode) noexcept {
  mode_ = mode;
  session_active_ = false;
}

PipelineResult HeadTalkPipeline::evaluate(const audio::MultiBuffer& capture,
                                          bool followup) {
  const PipelineResult result =
      score_capture(capture, mode_, followup, session_active_);
  session_active_ = result.session_open_after;
  return result;
}

PipelineResult HeadTalkPipeline::score_capture(const audio::MultiBuffer& capture,
                                               VaMode mode, bool followup,
                                               bool session_active,
                                               ScoringWorkspace* workspace,
                                               FeatureCapture* features_out) const {
  obs::ScopedSpan span("pipeline.evaluate");
  static obs::Histogram& evaluate_seconds =
      obs::Registry::global().histogram("pipeline.evaluate_seconds");
  obs::Timer timer(&evaluate_seconds);
  t_stages.count = 0;
  const PipelineResult result =
      evaluate_stages(capture, mode, followup, session_active, workspace, features_out);
  count_decision(result.decision);
  // Offer the utterance to the slow-exemplar ring (one relaxed load when
  // it is not among the K slowest). Normal/Mute verdicts run no stages and
  // would only dilute the ring, so they are not offered.
  if (t_stages.count > 0) {
    obs::SlowExemplarRing::global().offer(timer.stop(), decision_name(result.decision),
                                          t_stages.view());
  }
  return result;
}

PipelineResult HeadTalkPipeline::evaluate_stages(const audio::MultiBuffer& capture,
                                                 VaMode mode, bool followup,
                                                 bool session_active,
                                                 ScoringWorkspace* workspace,
                                                 FeatureCapture* features_out) const {
  if (mode != VaMode::kHeadTalk) {
    // Normal/Mute verdicts run no stages; skip the accumulation entirely.
    PipelineResult result;
    result.session_open_after = session_active;
    if (features_out != nullptr) {
      features_out->liveness.clear();
      features_out->orientation.clear();
    }
    result.decision =
        mode == VaMode::kMute ? Decision::kRejectedMuted : Decision::kAccepted;
    return result;
  }

  // --- HeadTalk mode ---
  // The capture runs through the same incremental operator the streaming
  // layer feeds frame by frame (here in one push); the decision then comes
  // from the shared finalize ladder, so batch and streamed scoring cannot
  // diverge. Each stage reports through StageTimer: span tracer +
  // per-stage live histogram + the utterance's exemplar record, from one
  // clock interval.
  IncrementalExtractor local;
  IncrementalExtractor& extractor = [&]() -> IncrementalExtractor& {
    if (workspace == nullptr) return local;
    workspace->note_use();
    return workspace->incremental();
  }();
  {
    static obs::Histogram& seconds =
        stage_histogram("pipeline.stage.incremental_accumulate_seconds");
    StageTimer stage("pipeline.incremental_accumulate", seconds);
    extractor.begin(incremental_config_, capture.channel_count(),
                    capture.sample_rate());
    extractor.push(capture);
  }
  return finalize_stages(extractor, mode, followup, session_active, features_out);
}

PipelineResult HeadTalkPipeline::finalize_stages(IncrementalExtractor& extractor,
                                                 VaMode mode, bool followup,
                                                 bool session_active,
                                                 FeatureCapture* features_out) const {
  PipelineResult result;
  result.session_open_after = session_active;
  if (features_out != nullptr) {
    features_out->liveness.clear();
    features_out->orientation.clear();
  }
  if (mode == VaMode::kMute) {
    result.decision = Decision::kRejectedMuted;
    return result;
  }
  if (mode == VaMode::kNormal) {
    result.decision = Decision::kAccepted;
    return result;
  }

  // Liveness first (Fig. 2): a replayed wake word is rejected outright,
  // whether or not a session is open — a session belongs to a human.
  result.liveness_checked = true;
  const auto liveness_features = [&] {
    static obs::Histogram& seconds =
        stage_histogram("pipeline.stage.liveness_features_seconds");
    StageTimer stage("pipeline.liveness_features", seconds);
    return extractor.finalize_liveness();
  }();
  if (features_out != nullptr) features_out->liveness = liveness_features;
  {
    static obs::Histogram& seconds =
        stage_histogram("pipeline.stage.liveness_score_seconds");
    StageTimer stage("pipeline.liveness_score", seconds);
    result.liveness_score = liveness_.score(liveness_features);
  }
  result.live = result.liveness_score >= liveness_.config().threshold;
  if (!result.live) {
    result.decision = Decision::kRejectedReplay;
    result.session_open_after = false;
    return result;
  }

  if (followup && session_active) {
    result.via_open_session = true;
    result.decision = Decision::kAccepted;
    return result;
  }

  result.orientation_checked = true;
  const auto features = [&] {
    static obs::Histogram& seconds =
        stage_histogram("pipeline.stage.orientation_features_seconds");
    StageTimer stage("pipeline.orientation_features", seconds);
    return extractor.finalize_orientation();
  }();
  if (features_out != nullptr) features_out->orientation = features;
  {
    static obs::Histogram& seconds =
        stage_histogram("pipeline.stage.orientation_score_seconds");
    StageTimer stage("pipeline.orientation_score", seconds);
    result.orientation_score = orientation_.score(features);
    result.facing = orientation_.is_facing(features);
  }
  if (!result.facing) {
    result.decision = Decision::kRejectedNotFacing;
    return result;
  }
  result.decision = Decision::kAccepted;
  result.session_open_after = true;
  return result;
}

PipelineResult HeadTalkPipeline::finalize_segment(IncrementalExtractor& extractor,
                                                  VaMode mode, bool followup,
                                                  bool session_active,
                                                  FeatureCapture* features_out) const {
  obs::ScopedSpan span("pipeline.finalize");
  static obs::Histogram& finalize_seconds =
      obs::Registry::global().histogram("pipeline.finalize_seconds");
  obs::Timer timer(&finalize_seconds);
  t_stages.count = 0;
  const PipelineResult result =
      finalize_stages(extractor, mode, followup, session_active, features_out);
  count_decision(result.decision);
  if (t_stages.count > 0) {
    obs::SlowExemplarRing::global().offer(timer.stop(), decision_name(result.decision),
                                          t_stages.view());
  }
  return result;
}

obs::Histogram& pipeline_stage_histogram(const char* name) {
  return stage_histogram(name);
}

PipelineResult HeadTalkPipeline::process_wake_word(const audio::MultiBuffer& capture) {
  return evaluate(capture, /*followup=*/false);
}

PipelineResult HeadTalkPipeline::process_followup(const audio::MultiBuffer& capture) {
  return evaluate(capture, /*followup=*/true);
}

}  // namespace headtalk::core
