#include "core/liveness_features.h"

#include "core/incremental_extractor.h"
#include "core/scoring_workspace.h"

namespace headtalk::core {

ml::FeatureVector LivenessFeatureExtractor::extract(const audio::Buffer& channel,
                                                    ScoringWorkspace* workspace) const {
  // One definition for batch and streamed extraction: the whole channel
  // goes through the incremental operator in a single push (chunk
  // invariance makes this bit-identical to frame-by-frame streaming).
  IncrementalExtractorConfig op_config;
  op_config.liveness = config_;
  op_config.enable_orientation = false;
  IncrementalExtractor local;
  IncrementalExtractor* op = &local;
  if (workspace != nullptr) {
    workspace->note_use();
    op = &workspace->incremental();
  }
  audio::MultiBuffer wrapped(std::vector<audio::Buffer>{channel});
  op->begin(op_config, 1, channel.sample_rate());
  op->push(wrapped);
  return op->finalize_liveness();
}

}  // namespace headtalk::core
