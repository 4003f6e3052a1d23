// SRP-PHAT: Steered Response Power with Phase Transform (DiBiase [23],
// Do & Silverman [25]).
//
// Following Eq. 6 of the paper, the weighted SRP over a lag window is the
// sum of the GCC-PHAT sequences of all microphone pairs. HeadTalk is the
// first to use the SRP sequence (its peak structure, Fig. 6b) as a speaker
// *orientation* feature rather than for localization.
#pragma once

#include <cstddef>
#include <vector>

#include "audio/sample_buffer.h"
#include "dsp/correlation.h"

namespace headtalk::dsp {

/// GCC-PHAT sequences for every unordered microphone pair (i < j) of a
/// multichannel capture, all over the same symmetric lag window.
struct PairwiseGcc {
  struct Pair {
    std::size_t i = 0, j = 0;
    CorrelationSequence gcc;
    /// Mean cross-spectral coherence of the pair (1.0 when pruning is
    /// disabled — the estimate is only computed when a floor is set).
    double coherence = 1.0;
    /// True when the pair fell below the coherence floor: its gcc window
    /// is all zeros and it contributed nothing to SRP.
    bool pruned = false;
  };
  std::vector<Pair> pairs;
  int max_lag = 0;
};

/// Options for pairwise GCC extraction. With `coherence_floor > 0`, each
/// pair's mean magnitude-squared coherence is estimated from block-averaged
/// cross spectra (|sum XY*|^2 / (sum|X|^2 sum|Y|^2) over blocks of
/// `coherence_block` bins sampled every `coherence_stride`-th bin) and
/// pairs below the floor skip PHAT weighting and the inverse transform
/// entirely — their gcc window is zeroed and flagged. Independent noise
/// between two channels averages ~1/coherence_block (~0.016); genuinely
/// coupled channels sit near 1, so floors around 0.1–0.3 separate them
/// with a wide margin. The default floor 0 disables the estimate (and its
/// cost) completely.
struct PairwiseGccOptions {
  double coherence_floor = 0.0;
  std::size_t coherence_block = 64;
  std::size_t coherence_stride = 4;
};

/// Computes GCC-PHAT for all channel pairs of `capture` over
/// [-max_lag, +max_lag] samples.
[[nodiscard]] PairwiseGcc pairwise_gcc_phat(const audio::MultiBuffer& capture,
                                            int max_lag,
                                            const PairwiseGccOptions& options = {});

/// Reusable scratch for repeated pairwise GCC extraction: per-channel
/// spectra and correlation scratch. One per thread.
struct SrpWorkspace {
  std::vector<HalfSpectrum> spectra;
  CorrelationWorkspace correlation;
  FftScratch fft;
};

/// pairwise_gcc_phat writing into caller-owned output/scratch; results are
/// bit-identical to the value-returning overload.
void pairwise_gcc_phat_into(const audio::MultiBuffer& capture, int max_lag,
                            PairwiseGcc& out, SrpWorkspace& workspace,
                            const PairwiseGccOptions& options = {});

/// Weighted SRP-PHAT sequence (Eq. 6): element-wise sum of all pair GCCs.
[[nodiscard]] CorrelationSequence srp_phat(const PairwiseGcc& gcc);

/// Convenience: SRP-PHAT directly from a capture.
[[nodiscard]] CorrelationSequence srp_phat(const audio::MultiBuffer& capture,
                                           int max_lag);

/// The paper selects the SRP lag window from the array's maximum
/// inter-microphone spacing: N = d*fs/c samples on each side.
/// Returns that max_lag (at least 1).
[[nodiscard]] int srp_max_lag(double max_mic_distance_m, double sample_rate,
                              double speed_of_sound = 340.0);

/// Returns the values of the `k` largest local maxima of a sequence,
/// descending, requiring `min_separation` samples between peaks (Fig. 6b
/// shows 3-4 reverberation peaks; the top three are a feature).
///
/// A peak must be an *interior* sample that dominates both neighbours
/// (>= left, > right). The first and last samples never qualify: the edges
/// of a truncated correlation window routinely carry boundary artifacts,
/// and counting them as maxima displaced true SRP peaks. A monotone ramp
/// therefore has no peaks and yields `k` zero-padded values.
[[nodiscard]] std::vector<double> top_peaks(const std::vector<double>& seq,
                                            std::size_t k,
                                            std::size_t min_separation = 2);

}  // namespace headtalk::dsp
