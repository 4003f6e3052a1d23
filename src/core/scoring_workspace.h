// Per-thread scratch state for repeated pipeline scoring.
//
// One utterance scored through the HeadTalk pipeline runs a dozen FFTs,
// C(n,2) GCC correlations, and an STFT per analysis block; without reuse
// each of those allocates its spectra and scratch buffers fresh. All of
// that state lives in the incremental operator, and a ScoringWorkspace
// owns one so a worker thread that scores utterance after utterance (a
// serve worker, a --jobs lane in sim/collector or headtalk_infer) touches
// the allocator only until the buffers reach steady-state size. FFT
// twiddle tables live in the process-wide dsp::FftPlanCache, not here.
//
// NOT thread-safe: create one workspace per worker thread. Reuse is
// observable via the `core.workspace.use` / `core.workspace.reuse`
// counters (obs registry). All workspace-accepting entry points are
// bit-identical to their workspace-free equivalents.
#pragma once

#include <cstdint>

#include "core/incremental_extractor.h"

namespace headtalk::core {

class ScoringWorkspace {
 public:
  /// Called by the extractors at the top of each extraction to account
  /// workspace traffic; every call after the first counts as a reuse.
  void note_use();

  /// Number of extractions served so far.
  [[nodiscard]] std::uint64_t uses() const noexcept { return uses_; }

  /// The incremental extractor state (see core/incremental_extractor.h);
  /// the pipeline, the wrapper extractors, a serve session and a streaming
  /// detector begin()/finalize it per capture or segment, so its internal
  /// buffers stay warm across utterances.
  [[nodiscard]] IncrementalExtractor& incremental() noexcept { return incremental_; }

 private:
  IncrementalExtractor incremental_;
  std::uint64_t uses_ = 0;
};

}  // namespace headtalk::core
