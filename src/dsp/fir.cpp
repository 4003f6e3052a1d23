#include "dsp/fir.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "dsp/simd/dispatch.h"

namespace headtalk::dsp {
namespace {

// Zeroth-order modified Bessel function of the first kind (series expansion).
double bessel_i0(double x) {
  double sum = 1.0;
  double term = 1.0;
  for (int k = 1; k < 32; ++k) {
    term *= (x / (2.0 * k)) * (x / (2.0 * k));
    sum += term;
    if (term < 1e-14 * sum) break;
  }
  return sum;
}

// Kaiser's empirical beta for a stop-band attenuation of `db` decibels.
double kaiser_beta(double db) {
  if (db > 50.0) return 0.1102 * (db - 8.7);
  if (db >= 21.0) return 0.5842 * std::pow(db - 21.0, 0.4) + 0.07886 * (db - 21.0);
  return 0.0;
}

}  // namespace

double kaiser_weight(double n, double length, double beta) {
  const double r = 2.0 * n / (length - 1.0) - 1.0;
  const double arg = 1.0 - r * r;
  if (arg < 0.0) return 0.0;
  return bessel_i0(beta * std::sqrt(arg)) / bessel_i0(beta);
}

std::vector<double> kaiser_lowpass(std::size_t taps, double pass_hz, double stop_hz,
                                   double sample_rate, double gain) {
  if (taps % 2 == 0) throw std::invalid_argument("kaiser_lowpass: tap count must be odd");
  if (!(pass_hz > 0.0 && pass_hz < stop_hz && stop_hz <= 0.5 * sample_rate)) {
    throw std::invalid_argument(
        "kaiser_lowpass: need 0 < pass_hz < stop_hz <= sample_rate / 2");
  }
  std::vector<double> h(taps, 1.0);
  if (taps > 1) {
    // Kaiser's length formula solved for the attenuation: order
    // N = (A - 7.95) / (2.285 * transition), transition in rad/sample.
    const double transition = 2.0 * std::numbers::pi * (stop_hz - pass_hz) / sample_rate;
    const double order = static_cast<double>(taps - 1);
    const double beta = kaiser_beta(2.285 * order * transition + 7.95);
    const double cutoff = 0.5 * (pass_hz + stop_hz) / sample_rate;  // cycles/sample
    const double length = static_cast<double>(taps);
    // One half evaluated, mirrored: the taps are exactly symmetric.
    for (std::size_t n = 0; n <= taps / 2; ++n) {
      const double x = 2.0 * cutoff * (static_cast<double>(n) - 0.5 * order);
      const double px = std::numbers::pi * x;
      const double sinc = x == 0.0 ? 1.0 : std::sin(px) / px;
      h[n] = h[taps - 1 - n] = sinc * kaiser_weight(static_cast<double>(n), length, beta);
    }
  }
  double sum = 0.0;
  for (const double v : h) sum += v;
  for (double& v : h) v *= gain / sum;
  return h;
}

void FirDecimator::reset(std::vector<double> taps, std::size_t step) {
  if (step == 0 || taps.size() < step) {
    throw std::invalid_argument("FirDecimator: need step >= 1 and at least step taps");
  }
  taps_ = std::move(taps);
  step_ = step;
  rows_.clear();
  row_stride_ = 0;
  restart();
}

void FirDecimator::restart() {
  // The history is T - 1 zeros; the rows keep their size from the previous
  // signal.
  staged_count_ = 0;
  start_ = 0;
  fill_ = 0;
  std::fill_n(append(taps_.size() - 1), taps_.size() - 1, 0.0);
  split_staged();
}

double* FirDecimator::append(std::size_t frames) {
  split_staged();
  // Drop what no output reads any more (start_ is a whole number of rows
  // in); what is left is shorter than the filter.
  const std::size_t drop = start_ / step_;
  const std::size_t kept = (fill_ + step_ - 1) / step_ - drop;
  for (std::size_t p = 0; drop > 0 && p < step_; ++p) {
    double* row = rows_.data() + p * row_stride_;
    std::copy(row + drop, row + drop + kept, row);
  }
  fill_ -= start_;
  start_ = 0;
  const std::size_t stride = (fill_ + frames + step_ - 1) / step_;
  if (stride > row_stride_) {
    std::vector<double> grown(step_ * stride, 0.0);
    for (std::size_t p = 0; p < step_; ++p) {
      std::copy_n(rows_.data() + p * row_stride_, row_stride_, grown.data() + p * stride);
    }
    rows_.swap(grown);
    row_stride_ = stride;
  }
  staged_.resize(std::max(staged_.size(), frames));
  staged_count_ = frames;
  fill_ += frames;
  return staged_.data();
}

void FirDecimator::split_staged() {
  // Input n = fill_ - staged_count_ + i goes to row n % step, column n / step.
  const std::size_t first = fill_ - staged_count_;
  for (std::size_t i = 0; i < staged_count_ && i < step_; ++i) {
    const std::size_t n = first + i;
    double* row = rows_.data() + (n % step_) * row_stride_ + n / step_;
    for (std::size_t k = i, col = 0; k < staged_count_; k += step_, ++col) {
      row[col] = staged_[k];
    }
  }
  staged_count_ = 0;
}

std::size_t FirDecimator::ready() const noexcept {
  const std::size_t held = fill_ - start_;
  return held < taps_.size() ? 0 : (held - taps_.size()) / step_ + 1;
}

void FirDecimator::emit(double* out, std::size_t count) {
  if (count > ready()) throw std::logic_error("FirDecimator: emit past the input");
  split_staged();
  simd::kernels().fir_decimate(taps_.data(), taps_.size(), rows_.data() + start_ / step_,
                               row_stride_, step_, out, count);
  start_ += count * step_;
}

}  // namespace headtalk::dsp
