// The HeadTalk privacy-control pipeline (Fig. 1 + Fig. 2).
//
// Modes:
//   Normal   — every detected wake word is accepted (stock VA behaviour).
//   Mute     — microphones disabled; everything rejected.
//   HeadTalk — a wake word is accepted only if (1) the liveness detector
//              classifies it as live human speech and (2) the orientation
//              classifier says the speaker is facing the device. Once a
//              session is open, follow-up commands need not face the device
//              (§I: "the user does not need to continuously face the device
//              for the remaining session").
#pragma once

#include <string_view>
#include <vector>

#include "audio/sample_buffer.h"
#include "core/incremental_extractor.h"
#include "core/liveness_detector.h"
#include "core/liveness_features.h"
#include "core/orientation_classifier.h"
#include "core/orientation_features.h"

namespace headtalk::obs {
class Histogram;
}

namespace headtalk::core {

enum class VaMode { kNormal, kMute, kHeadTalk };

[[nodiscard]] std::string_view va_mode_name(VaMode mode);

enum class Decision {
  kAccepted,           ///< wake word accepted; audio may go to the cloud
  kRejectedMuted,      ///< device is in mute mode
  kRejectedReplay,     ///< liveness check failed (mechanical speaker)
  kRejectedNotFacing,  ///< live human, but not facing the device
};

[[nodiscard]] std::string_view decision_name(Decision decision);

struct PipelineResult {
  Decision decision = Decision::kRejectedMuted;
  bool liveness_checked = false;
  bool live = false;
  double liveness_score = 0.0;
  bool orientation_checked = false;
  bool facing = false;
  double orientation_score = 0.0;
  /// True when the acceptance came from an already-open session.
  bool via_open_session = false;
  /// Session state a caller should carry into the next utterance (an
  /// accepted facing wake word opens it, a replay closes it).
  bool session_open_after = false;
};

struct PipelineConfig {
  OrientationFeatureConfig orientation_features{};
  LivenessFeatureConfig liveness_features{};
};

/// The feature vectors a scoring pass computed, exposed for layers that
/// need them beyond the verdict (speaker-identity matching in tenant/).
/// A vector is empty when its stage did not run — orientation is skipped
/// for replays and for follow-ups accepted via an open session, and
/// Normal/Mute verdicts run no stages at all.
struct FeatureCapture {
  std::vector<double> liveness;
  std::vector<double> orientation;

  [[nodiscard]] bool empty() const noexcept {
    return liveness.empty() && orientation.empty();
  }
};

/// Owns the two trained detectors and applies the mode state machine.
class HeadTalkPipeline {
 public:
  HeadTalkPipeline(OrientationClassifier orientation, LivenessDetector liveness,
                   PipelineConfig config = {});

  [[nodiscard]] VaMode mode() const noexcept { return mode_; }
  void set_mode(VaMode mode) noexcept;

  [[nodiscard]] bool session_active() const noexcept { return session_active_; }
  /// Ends the current interaction session (e.g. VA timeout).
  void end_session() noexcept { session_active_ = false; }

  /// Processes a detected wake-word capture under the current mode. A
  /// successful HeadTalk acceptance opens a session.
  [[nodiscard]] PipelineResult process_wake_word(const audio::MultiBuffer& capture);

  /// Processes a follow-up command within an open session (HeadTalk mode
  /// accepts it without the orientation check; other modes behave as for a
  /// wake word).
  [[nodiscard]] PipelineResult process_followup(const audio::MultiBuffer& capture);

  /// Stateless, thread-safe scoring used by the serving layer: evaluates
  /// one capture under `mode` with the caller's session flag instead of the
  /// pipeline's own. The models and extractors are only read, so any number
  /// of threads may score against one resident pipeline concurrently;
  /// `result.session_open_after` is the state the caller carries forward.
  ///
  /// `workspace` (optional) supplies per-thread scratch reused across
  /// calls (see core/scoring_workspace.h); it never changes the result.
  /// Each workspace must be used by at most one thread at a time.
  ///
  /// `features_out` (optional) receives copies of the feature vectors the
  /// stages computed (see FeatureCapture); passing null costs nothing.
  [[nodiscard]] PipelineResult score_capture(const audio::MultiBuffer& capture,
                                             VaMode mode, bool followup,
                                             bool session_active,
                                             ScoringWorkspace* workspace = nullptr,
                                             FeatureCapture* features_out = nullptr) const;

  /// Streaming entry point, the counterpart of score_capture for audio
  /// that was already fed through an IncrementalExtractor chunk by chunk
  /// (streamed segments and served whole utterances alike): runs only the
  /// finalize + classify ladder on the accumulated state, so the
  /// post-endpoint cost is O(1) in the segment length. In HeadTalk mode the
  /// extractor must have been begun with incremental_config() (or an
  /// equivalent config) and fed the segment's samples; Normal and Mute
  /// never read it. Stateless with respect to the pipeline, exactly like
  /// score_capture.
  [[nodiscard]] PipelineResult finalize_segment(IncrementalExtractor& extractor,
                                                VaMode mode, bool followup,
                                                bool session_active,
                                                FeatureCapture* features_out = nullptr) const;

  /// The extractor configuration score_capture itself accumulates with —
  /// feed an IncrementalExtractor with this and finalize_segment() agrees
  /// with score_capture() on the same samples bit for bit.
  [[nodiscard]] const IncrementalExtractorConfig& incremental_config() const noexcept {
    return incremental_config_;
  }

  [[nodiscard]] const OrientationClassifier& orientation() const noexcept {
    return orientation_;
  }
  [[nodiscard]] const LivenessDetector& liveness() const noexcept { return liveness_; }
  [[nodiscard]] const PipelineConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] PipelineResult evaluate(const audio::MultiBuffer& capture,
                                        bool followup);
  [[nodiscard]] PipelineResult evaluate_stages(const audio::MultiBuffer& capture,
                                               VaMode mode, bool followup,
                                               bool session_active,
                                               ScoringWorkspace* workspace,
                                               FeatureCapture* features_out) const;
  [[nodiscard]] PipelineResult finalize_stages(IncrementalExtractor& extractor,
                                               VaMode mode, bool followup,
                                               bool session_active,
                                               FeatureCapture* features_out) const;

  OrientationClassifier orientation_;
  LivenessDetector liveness_;
  PipelineConfig config_;
  IncrementalExtractorConfig incremental_config_;
  VaMode mode_ = VaMode::kNormal;
  bool session_active_ = false;
};

/// Stage-latency histogram registered under `name` with the pipeline's
/// shared stage bucket bounds (25 µs – ~3.3 s, ×2 per bucket). The
/// streaming layer times its per-frame incremental accumulation into
/// "pipeline.stage.incremental_accumulate_seconds" through this, so batch
/// and streamed accumulation share one instrument.
[[nodiscard]] obs::Histogram& pipeline_stage_histogram(const char* name);

}  // namespace headtalk::core
