// Spectral measurements: band energies, high/low-band ratio (HLBR),
// centroid, flatness, roll-off, slope, and log band energies.
//
// HLBR and the 20-chunk low-band statistics are orientation features
// (§III-B3 "Speech Directivity"); the log-band/slope measures feed the
// liveness detector (§III-A keys on the 4 kHz+ energy distribution).
//
// Every frequency band is half-open [low_hz, high_hz) over bin center
// frequencies, with a small floating-point tolerance at the edges so
// computed band boundaries that coincide with a bin frequency resolve the
// same way regardless of rounding error. A high_hz above Nyquist is
// clamped to the whole remaining spectrum; a low_hz at or above Nyquist
// throws std::invalid_argument.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "audio/sample_buffer.h"

namespace headtalk::dsp {

/// The one-sided spectrum bins [first, last) of the band [low_hz,
/// high_hz), clamped to `bins` — the bins every measurement below reads.
/// Half-open, so adjacent bands tile the spectrum: a bin whose center
/// frequency equals high_hz belongs to the *next* band.
///
/// Both bounds subtract a small tolerance (in bins) before the ceil. Band
/// edges are routinely computed with floating-point arithmetic
/// (low_hz + width * c), so an edge that should coincide with a bin
/// frequency can land a few ulps above it; a bare ceil then shifts that
/// edge by a whole bin — the boundary bin gets double-counted by one
/// neighbouring band and dropped from the other, breaking band additivity.
///
/// high_hz above the Nyquist frequency is an explicit clamp to the whole
/// remaining spectrum (every representable bin lies below it, including
/// the Nyquist bin). low_hz at or above Nyquist selects nothing that
/// exists and throws std::invalid_argument, as does high_hz <= low_hz.
[[nodiscard]] std::pair<std::size_t, std::size_t> bin_range(std::size_t bins,
                                                            std::size_t fft_size,
                                                            double sample_rate,
                                                            double low_hz, double high_hz);

/// Mean magnitude of the spectrum bins falling in [low_hz, high_hz).
[[nodiscard]] double band_mean_magnitude(std::span<const double> magnitude,
                                         std::size_t fft_size, double sample_rate,
                                         double low_hz, double high_hz);

/// Sum of squared magnitudes in [low_hz, high_hz) (band energy).
[[nodiscard]] double band_energy(std::span<const double> magnitude,
                                 std::size_t fft_size, double sample_rate,
                                 double low_hz, double high_hz);

/// High-to-low band ratio: mean |X| of the high band divided by mean |X| of
/// the low band. Returns 0 when the low band is silent.
[[nodiscard]] double high_low_band_ratio(std::span<const double> magnitude,
                                         std::size_t fft_size, double sample_rate,
                                         double low_band_lo, double low_band_hi,
                                         double high_band_lo, double high_band_hi);

/// Splits [low_hz, high_hz) into `chunks` equal bands and returns, for each,
/// {mean, RMS, std} of the contained magnitudes — 3*chunks values.
[[nodiscard]] std::vector<double> banded_statistics(std::span<const double> magnitude,
                                                    std::size_t fft_size,
                                                    double sample_rate, double low_hz,
                                                    double high_hz, std::size_t chunks);

/// Log10 band energies over `bands` equal-width bands spanning
/// [low_hz, high_hz), floored at `floor_db` dB below the maximum band.
[[nodiscard]] std::vector<double> log_band_energies(std::span<const double> magnitude,
                                                    std::size_t fft_size,
                                                    double sample_rate, double low_hz,
                                                    double high_hz, std::size_t bands,
                                                    double floor_db = 80.0);

/// Amplitude-weighted mean frequency (Hz).
[[nodiscard]] double spectral_centroid(std::span<const double> magnitude,
                                       std::size_t fft_size, double sample_rate);

/// Geometric/arithmetic mean ratio of the power spectrum in [low_hz, high_hz)
/// — near 1 for noise-like, near 0 for tonal content.
[[nodiscard]] double spectral_flatness(std::span<const double> magnitude,
                                       std::size_t fft_size, double sample_rate,
                                       double low_hz, double high_hz);

/// Frequency below which `fraction` (e.g. 0.95) of total spectral energy lies.
[[nodiscard]] double spectral_rolloff(std::span<const double> magnitude,
                                      std::size_t fft_size, double sample_rate,
                                      double fraction = 0.95);

/// Least-squares slope of log-magnitude vs. frequency (dB per kHz) over
/// [low_hz, high_hz) — captures the >4 kHz decay difference of Fig. 3.
[[nodiscard]] double spectral_slope_db_per_khz(std::span<const double> magnitude,
                                               std::size_t fft_size, double sample_rate,
                                               double low_hz, double high_hz);

}  // namespace headtalk::dsp
