// Per-thread scratch state for repeated pipeline scoring.
//
// One utterance scored through the HeadTalk pipeline runs a dozen FFTs,
// C(n,2) GCC correlations, and an STFT; without reuse each of those
// allocates its spectra and scratch buffers fresh. A ScoringWorkspace owns
// all of that mutable state so a worker thread that scores utterance after
// utterance (a serve worker, a --jobs lane in sim/collector or
// headtalk_infer) touches the allocator only until
// the buffers reach steady-state size. FFT twiddle tables live in the
// process-wide dsp::FftPlanCache, not here — the workspace holds only the
// per-call mutable buffers.
//
// NOT thread-safe: create one workspace per worker thread. Reuse is
// observable via the `core.workspace.use` / `core.workspace.reuse`
// counters (obs registry). All workspace-accepting entry points are
// bit-identical to their workspace-free equivalents.
#pragma once

#include <cstdint>

#include "core/incremental_extractor.h"
#include "dsp/srp.h"

namespace headtalk::core {

class ScoringWorkspace {
 public:
  /// Called by the extractors at the top of each extraction to account
  /// workspace traffic; every call after the first counts as a reuse.
  void note_use();

  /// Number of extractions served so far.
  [[nodiscard]] std::uint64_t uses() const noexcept { return uses_; }

  [[nodiscard]] dsp::SrpWorkspace& srp() noexcept { return srp_; }
  [[nodiscard]] dsp::PairwiseGcc& gcc() noexcept { return gcc_; }
  [[nodiscard]] dsp::FftScratch& fft() noexcept { return fft_; }
  /// The incremental extractor state (see core/incremental_extractor.h);
  /// the pipeline and the wrapper extractors begin()/finalize it per
  /// capture, so its internal buffers stay warm across utterances.
  [[nodiscard]] IncrementalExtractor& incremental() noexcept { return incremental_; }

 private:
  dsp::SrpWorkspace srp_;
  dsp::PairwiseGcc gcc_;
  dsp::FftScratch fft_;
  IncrementalExtractor incremental_;
  std::uint64_t uses_ = 0;
};

}  // namespace headtalk::core
