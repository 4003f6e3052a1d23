#include "dsp/srp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace headtalk::dsp {

int srp_max_lag(double max_mic_distance_m, double sample_rate, double speed_of_sound) {
  if (max_mic_distance_m <= 0.0 || sample_rate <= 0.0 || speed_of_sound <= 0.0) {
    throw std::invalid_argument("srp_max_lag: arguments must be positive");
  }
  // Tolerant ceiling: d * fs / c that lands on an integer (e.g. D1's
  // 0.085 m * 48 kHz / 340 = 12.0) must not round up from FP noise.
  const double n = max_mic_distance_m * sample_rate / speed_of_sound;
  return std::max(1, static_cast<int>(std::ceil(n - 1e-9)));
}

std::vector<double> top_peaks(const std::vector<double>& seq, std::size_t k,
                              std::size_t min_separation) {
  struct Peak {
    std::size_t index;
    double value;
  };
  std::vector<Peak> peaks;
  // Interior samples only: the first/last lag of a truncated correlation
  // window carries boundary artifacts, not genuine response power.
  for (std::size_t i = 1; i + 1 < seq.size(); ++i) {
    if (seq[i] >= seq[i - 1] && seq[i] > seq[i + 1]) peaks.push_back({i, seq[i]});
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.value > b.value; });

  std::vector<Peak> kept;
  for (const auto& p : peaks) {
    const bool far_enough = std::all_of(kept.begin(), kept.end(), [&](const Peak& q) {
      const std::size_t d = p.index > q.index ? p.index - q.index : q.index - p.index;
      return d >= min_separation;
    });
    if (far_enough) kept.push_back(p);
    if (kept.size() == k) break;
  }

  std::vector<double> out;
  out.reserve(k);
  for (const auto& p : kept) out.push_back(p.value);
  while (out.size() < k) out.push_back(0.0);  // pad when fewer peaks exist
  return out;
}

}  // namespace headtalk::dsp
