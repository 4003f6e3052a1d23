// Linear-phase FIR low-pass design (Kaiser-windowed sinc) and a stateful
// decimator that evaluates the filter only at the samples it keeps.
//
// The operator's directivity path runs its mixdown through FirDecimator:
// the HLBR and banded features read 100 Hz – 4 kHz only, so the mixdown is
// decimated to the lowest power-of-two fraction of the rate that still
// leaves those bands clear of aliasing, and its spectrum is taken there.
#pragma once

#include <cstddef>
#include <vector>

namespace headtalk::dsp {

/// Kaiser window of `length` points evaluated at position n in
/// [0, length - 1] (continuous, so fractional kernel offsets work too);
/// 0 outside that range.
[[nodiscard]] double kaiser_weight(double n, double length, double beta);

/// Kaiser-windowed-sinc low-pass of `taps` coefficients: pass band up to
/// `pass_hz`, stop band from `stop_hz`, cutoff halfway between. The window's
/// beta comes from Kaiser's formula for the attenuation this length
/// reaches over that transition. `taps` must be odd, so the filter is
/// symmetric with a whole-sample group delay of (taps - 1) / 2; the
/// coefficients sum to `gain`. Throws std::invalid_argument on an even tap
/// count or a band edge outside 0 < pass_hz < stop_hz <= sample_rate / 2.
[[nodiscard]] std::vector<double> kaiser_lowpass(std::size_t taps, double pass_hz,
                                                 double stop_hz, double sample_rate,
                                                 double gain = 1.0);

/// FIR decimation by `step` that computes only the kept outputs, one
/// dispatched simd::Kernels::fir_decimate call per emit(). With T taps h
/// and the input x taken as zero before its first sample, output m is
///   y[m] = sum over t < T of h[t] * x[m * step + t - (T - 1)],
/// the filter's response at input sample m * step (a convolution for the
/// symmetric taps kaiser_lowpass designs). The input is kept as `step`
/// polyphase rows, so the kernel reads each tap of four outputs with one
/// contiguous load. The T - 1 samples of history and the decimation phase
/// carry over between calls and depend only on how many samples came in,
/// so the split of the input never changes an output. Storage grows to
/// T - 1 plus the largest append and is reused. reset() comes first.
class FirDecimator {
 public:
  /// Adopts `taps` (at least `step` of them) and `step` (>= 1) and zeroes
  /// the history. Throws std::invalid_argument otherwise.
  void reset(std::vector<double> taps, std::size_t step);

  /// Zeroes the history for a new signal, keeping the taps and step.
  void restart();

  /// Room for the next `frames` input samples; the caller fills all of it
  /// before calling anything else.
  [[nodiscard]] double* append(std::size_t frames);

  /// Outputs the input so far completes that emit() has not written yet.
  [[nodiscard]] std::size_t ready() const noexcept;

  /// Writes the next `count` outputs to `out` (count <= ready(), else
  /// std::logic_error).
  void emit(double* out, std::size_t count);

  [[nodiscard]] std::size_t step() const noexcept { return step_; }

 private:
  void split_staged();

  std::vector<double> taps_;
  std::size_t step_ = 1;
  std::vector<double> rows_;     ///< [phase][row_stride_]: input n at [n % step][n / step]
  std::size_t row_stride_ = 0;
  std::vector<double> staged_;   ///< the last append, not yet split into the rows
  std::size_t staged_count_ = 0;
  std::size_t start_ = 0;        ///< input index of the next output's first tap
  std::size_t fill_ = 0;         ///< input samples held, staged ones included
};

}  // namespace headtalk::dsp
