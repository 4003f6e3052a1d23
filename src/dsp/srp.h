// SRP-PHAT helpers: Steered Response Power with Phase Transform (DiBiase
// [23], Do & Silverman [25]).
//
// Following Eq. 6 of the paper, the weighted SRP over a lag window is the
// sum of the GCC-PHAT sequences of all microphone pairs; the incremental
// operator (core/incremental_extractor.h) computes both. HeadTalk is the
// first to use the SRP sequence (its peak structure, Fig. 6b) as a speaker
// *orientation* feature rather than for localization. This header holds
// the lag-window sizing and the peak picking.
#pragma once

#include <cstddef>
#include <vector>

namespace headtalk::dsp {

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
