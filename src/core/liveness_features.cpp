#include "core/liveness_features.h"

#include "core/incremental_extractor.h"
#include "core/scoring_workspace.h"

namespace headtalk::core {

ml::FeatureVector LivenessFeatureExtractor::extract(const audio::MultiBuffer& capture,
                                                    ScoringWorkspace* workspace) const {
  // One definition for training and serving: the whole capture goes
  // through the incremental operator in a single push (chunk invariance
  // makes this bit-identical to frame-by-frame streaming). The orientation
  // stage is off; it never touches the trim or the liveness chain.
  IncrementalExtractorConfig op_config;
  op_config.liveness = config_;
  op_config.enable_orientation = false;
  IncrementalExtractor local;
  IncrementalExtractor* op = &local;
  if (workspace != nullptr) {
    workspace->note_use();
    op = &workspace->incremental();
  }
  op->begin(op_config, capture.channel_count(), capture.sample_rate());
  op->push(capture);
  return op->finalize_liveness();
}

}  // namespace headtalk::core
