#include "dsp/fft_plan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "dsp/simd/dispatch.h"
#include "obs/metrics.h"

namespace headtalk::dsp {
namespace {

bool is_pow2(std::size_t n) noexcept { return n != 0 && (n & (n - 1)) == 0; }

obs::Counter& hit_counter() {
  static obs::Counter& c = obs::Registry::global().counter("dsp.fft_plan.hit");
  return c;
}

obs::Counter& miss_counter() {
  static obs::Counter& c = obs::Registry::global().counter("dsp.fft_plan.miss");
  return c;
}

}  // namespace

FftPlan::FftPlan(std::size_t size) : size_(size) {
  if (!is_pow2(size)) {
    throw std::invalid_argument("fft: size must be a power of two");
  }

  bit_reverse_.resize(size);
  bit_reverse_[0] = 0;
  for (std::size_t i = 1, j = 0; i < size; ++i) {
    std::size_t bit = size >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bit_reverse_[i] = static_cast<std::uint32_t>(j);
  }

  // Stage-packed butterflies: for each stage len the len/2 factors
  // exp(-2*pi*i*k/len). Direct polar() per entry is more accurate than the
  // incremental w *= wlen recurrence (error does not accumulate along k).
  twiddles_.reserve(size > 1 ? size - 1 : 0);
  for (std::size_t len = 2; len <= size; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 2; ++k) {
      twiddles_.push_back(std::polar(1.0, angle * static_cast<double>(k)));
    }
  }

  pack_twiddles_.resize(size + 1);
  const double pack_step = -std::numbers::pi / static_cast<double>(size);
  for (std::size_t k = 0; k <= size; ++k) {
    pack_twiddles_[k] = std::polar(1.0, pack_step * static_cast<double>(k));
  }
}

void FftPlan::stages(double* re, double* im, std::size_t rows, bool inverse,
                     std::size_t front, std::size_t tail) const {
  // Output pruning by transform decomposition: the combine stage of size
  // `len` computes outputs k and k+len/2 from butterfly k, so the needed
  // output set {0..front-1} ∪ {size-tail..size-1} maps onto butterflies
  // k in [0, front) ∪ [len/2 - tail, len/2) — and each half-size
  // sub-transform needs exactly the same front/tail pattern of *its*
  // outputs, recursively. Stages small enough that the two ranges overlap
  // are computed in full; every skipped butterfly feeds only unneeded
  // outputs, so the survivors are bit-identical to a full inverse.
  const auto& kernels = simd::kernels();
  const auto* table = reinterpret_cast<const double*>(twiddles_.data());
  std::size_t len = 2;
  // The leading whole in-lane stages in one call, so the kernel can fuse
  // them in pairs.
  std::size_t whole = 1;
  while (2 * whole <= std::min(rows, size_) && front + tail >= whole) whole *= 2;
  if (whole >= 2) {
    kernels.fft_lane_stages(re, im, rows, 2, whole, 0, size_, table, inverse);
    len = 2 * whole;
  }
  for (; len <= rows && len <= size_; len <<= 1) {
    const std::size_t half = len / 2;
    if (front + tail >= half) {
      kernels.fft_lane_stages(re, im, rows, len, len, 0, half, table, inverse);
    } else {
      kernels.fft_lane_stages(re, im, rows, len, len, 0, front, table, inverse);
      kernels.fft_lane_stages(re, im, rows, len, len, half - tail, half, table, inverse);
    }
  }
  if (rows < size_) {
    kernels.fft_cross_stages(re, im, rows, table, inverse, front, tail);
  }
}

void FftPlan::transform(std::vector<Complex>& x, bool inverse, std::size_t front,
                        std::size_t tail) const {
  if (x.size() != size_) {
    throw std::invalid_argument("FftPlan: buffer size does not match plan size");
  }
  // One signal as four quarter lanes; sizes below 4 ride alone in lane 0
  // of a size-row lane block (the other lanes stay zero). The bit reversal
  // happens in the scatter.
  const bool quartered = size_ >= 4;
  const std::size_t rows = quartered ? size_ / simd::kFftLanes : size_;
  thread_local std::vector<double> lanes;
  lanes.resize(2 * simd::kFftLanes * rows);
  if (!quartered) std::fill(lanes.begin(), lanes.end(), 0.0);
  double* re = lanes.data();
  double* im = re + simd::kFftLanes * rows;
  const int shift = std::countr_zero(rows);
  auto slot = [&](std::size_t p) {
    return quartered ? (p & (rows - 1)) * simd::kFftLanes + (p >> shift)
                     : p * simd::kFftLanes;
  };
  for (std::size_t n = 0; n < size_; ++n) {
    const std::size_t s = slot(bit_reverse_[n]);
    re[s] = x[n].real();
    im[s] = x[n].imag();
  }
  stages(re, im, rows, inverse, front, tail);
  for (std::size_t p = 0; p < size_; ++p) {
    const std::size_t s = slot(p);
    x[p] = Complex(re[s], im[s]);
  }
  if (!inverse) return;
  const auto& kernels = simd::kernels();
  auto* data = reinterpret_cast<double*>(x.data());
  const double factor = 1.0 / static_cast<double>(size_);
  if (front + tail >= size_) {
    kernels.scale(data, 2 * size_, factor);
  } else {
    kernels.scale(data, 2 * front, factor);
    kernels.scale(data + 2 * (size_ - tail), 2 * tail, factor);
  }
}

void FftPlan::inverse_pruned(std::vector<Complex>& x, std::size_t front,
                             std::size_t tail) const {
  if (x.size() != size_) {
    throw std::invalid_argument("FftPlan: buffer size does not match plan size");
  }
  if (front == 0 || tail == 0 || front + tail > size_) {
    throw std::invalid_argument("FftPlan: bad pruning window");
  }
  transform(x, /*inverse=*/true, front, tail);
}

void FftPlan::forward(std::vector<Complex>& x) const {
  transform(x, /*inverse=*/false, size_, 0);
}

void FftPlan::inverse(std::vector<Complex>& x) const {
  transform(x, /*inverse=*/true, size_, 0);
}

void FftPlan::forward_lanes(double* re, double* im) const {
  stages(re, im, size_, /*inverse=*/false, size_, 0);
}

void FftPlan::inverse_pruned_lanes(double* re, double* im, std::size_t front,
                                   std::size_t tail) const {
  if (front + tail >= size_) {
    front = size_;
    tail = 0;
  }
  stages(re, im, size_, /*inverse=*/true, front, tail);
  const auto& kernels = simd::kernels();
  const double factor = 1.0 / static_cast<double>(size_);
  const std::size_t back = (size_ - tail) * simd::kFftLanes;
  for (double* part : {re, im}) {
    kernels.scale(part, front * simd::kFftLanes, factor);
    kernels.scale(part + back, tail * simd::kFftLanes, factor);
  }
}

void FftPlan::forward_quartered(double* re, double* im) const {
  if (size_ < 4) throw std::invalid_argument("FftPlan: quartered transform needs size >= 4");
  stages(re, im, size_ / simd::kFftLanes, /*inverse=*/false, size_, 0);
}

FftPlanCache& FftPlanCache::global() {
  static FftPlanCache cache;
  return cache;
}

std::shared_ptr<const FftPlan> FftPlanCache::get(std::size_t size) {
  if (!enabled_.load(std::memory_order_relaxed)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    miss_counter().increment();
    return std::make_shared<const FftPlan>(size);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = plans_.find(size); it != plans_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    hit_counter().increment();
    return it->second;
  }
  // Construct before insert so an invalid size never pollutes the map.
  auto plan = std::make_shared<const FftPlan>(size);
  misses_.fetch_add(1, std::memory_order_relaxed);
  miss_counter().increment();
  plans_.emplace(size, plan);
  return plan;
}

FftPlanCacheStats FftPlanCache::stats() const {
  FftPlanCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  out.plans = plans_.size();
  return out;
}

bool FftPlanCache::set_enabled(bool enabled) noexcept {
  return enabled_.exchange(enabled, std::memory_order_relaxed);
}

bool FftPlanCache::enabled() const noexcept {
  return enabled_.load(std::memory_order_relaxed);
}

void FftPlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  plans_.clear();
}

}  // namespace headtalk::dsp
