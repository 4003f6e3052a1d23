// Cross-correlation and GCC-PHAT (Knapp & Carter [40]).
//
// GCC-PHAT whitens the cross-power spectrum before the inverse transform so
// the correlation peak marks the time-difference-of-arrival (TDoA) even in
// reverberation. HeadTalk uses the GCC sequences of all microphone pairs
// both directly (feature vectors) and summed into SRP-PHAT (see srp.h).
#pragma once

#include <span>
#include <vector>

#include "audio/sample_buffer.h"
#include "dsp/fft.h"

namespace headtalk::dsp {

/// A correlation sequence over the symmetric lag window [-max_lag, +max_lag].
struct CorrelationSequence {
  std::vector<double> values;  ///< 2*max_lag+1 values; index max_lag == lag 0
  int max_lag = 0;

  [[nodiscard]] double at_lag(int lag) const { return values.at(static_cast<std::size_t>(lag + max_lag)); }
  [[nodiscard]] std::size_t size() const noexcept { return values.size(); }

  /// Lag (in samples) of the largest value.
  [[nodiscard]] int peak_lag() const;
  /// Largest value.
  [[nodiscard]] double peak_value() const;
};

/// Plain (unwhitened) cross-correlation of x and y over [-max_lag, max_lag],
/// computed in the frequency domain.
[[nodiscard]] CorrelationSequence cross_correlation(std::span<const audio::Sample> x,
                                                    std::span<const audio::Sample> y,
                                                    int max_lag);

/// GCC-PHAT of x and y over [-max_lag, max_lag] (Eq. 5 of the paper).
/// `epsilon` regularizes the phase-transform weighting for near-zero bins.
[[nodiscard]] CorrelationSequence gcc_phat(std::span<const audio::Sample> x,
                                           std::span<const audio::Sample> y,
                                           int max_lag, double epsilon = 1e-12);

/// GCC-PHAT from precomputed half-spectra (both at the same fft size, which
/// must be >= signal length + max_lag + 1). Avoids recomputing channel FFTs
/// when correlating many microphone pairs of the same capture.
///
/// Throws std::invalid_argument when fft_size < 2*max_lag + 1: negative
/// lags wrap to index fft_size - |lag| of the circular correlation, so a
/// shorter transform would silently alias them into the positive-lag
/// region instead of reading real negative-lag values.
[[nodiscard]] CorrelationSequence gcc_phat_from_spectra(const HalfSpectrum& x,
                                                        const HalfSpectrum& y,
                                                        int max_lag,
                                                        double epsilon = 1e-12);

/// Reusable scratch for repeated spectrum-domain correlations (the cross
/// spectrum and the FFT workspace). One per thread.
struct CorrelationWorkspace {
  HalfSpectrum cross;
  FftScratch fft;
};

/// gcc_phat_from_spectra writing into caller-owned output/scratch; results
/// are bit-identical to the value-returning overload.
void gcc_phat_from_spectra_into(const HalfSpectrum& x, const HalfSpectrum& y,
                                int max_lag, CorrelationSequence& out,
                                CorrelationWorkspace& workspace,
                                double epsilon = 1e-12);

/// TDoA estimate in samples: lag of the GCC-PHAT peak (positive means the
/// signal reaches x after y).
[[nodiscard]] int tdoa_samples(std::span<const audio::Sample> x,
                               std::span<const audio::Sample> y, int max_lag);

}  // namespace headtalk::dsp
