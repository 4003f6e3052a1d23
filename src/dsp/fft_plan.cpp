#include "dsp/fft_plan.h"

#include <algorithm>
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

template <class T>
void check_parts(std::size_t parts, std::size_t size) {
  if (parts < 2 || parts > simd::kLanes<T> || !is_pow2(parts) || parts > size) {
    throw std::invalid_argument("FftPlan: parts must be a power of two in [2, lanes], <= size");
  }
}

/// The inverse's 1/size scaling on output rows [0, front) and
/// [size - tail, size) of `width` lanes.
template <class T>
void scale_outputs(T* re, T* im, std::size_t size, std::size_t width, std::size_t front,
                   std::size_t tail) {
  const T factor = T(1) / static_cast<T>(size);
  const std::size_t back = (size - tail) * width;
  for (T* part : {re, im}) {
    for (std::size_t i = 0; i < front * width; ++i) part[i] *= factor;
    for (std::size_t i = back; i < size * width; ++i) part[i] *= factor;
  }
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

  twiddles_f_.assign(twiddles_.begin(), twiddles_.end());
  pack_twiddles_f_.assign(pack_twiddles_.begin(), pack_twiddles_.end());
}

template <>
const double* FftPlan::twiddle_table<double>() const noexcept {
  return reinterpret_cast<const double*>(twiddles_.data());
}

template <>
const float* FftPlan::twiddle_table<float>() const noexcept {
  return reinterpret_cast<const float*>(twiddles_f_.data());
}

template <class T>
void FftPlan::stages(T* re, T* im, std::size_t rows, std::size_t parts, bool inverse,
                     std::size_t front, std::size_t tail, T* out_re, T* out_im) const {
  // Output pruning by transform decomposition: the combine stage of size
  // `len` computes outputs k and k+len/2 from butterfly k, so the needed
  // output set {0..front-1} ∪ {size-tail..size-1} maps onto butterflies
  // k in [0, front) ∪ [len/2 - tail, len/2) — and each half-size
  // sub-transform needs exactly the same front/tail pattern of *its*
  // outputs, recursively. Stages small enough that the two ranges overlap
  // are computed in full; every skipped butterfly feeds only unneeded
  // outputs, so the survivors are bit-identical to a full inverse.
  const auto& kernels = simd::kernels().lanes<T>();
  const T* table = twiddle_table<T>();
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
  if (parts > 1) {
    kernels.fft_cross_stages(re, im, rows, parts, table, inverse, front, tail, out_re, out_im);
  }
}

template <class T>
void FftPlan::forward_lanes(T* re, T* im) const {
  stages<T>(re, im, size_, 1, /*inverse=*/false, size_, 0, nullptr, nullptr);
}

template <class T>
void FftPlan::inverse_pruned_lanes(T* re, T* im, std::size_t front, std::size_t tail) const {
  if (front + tail >= size_) {
    front = size_;
    tail = 0;
  }
  stages<T>(re, im, size_, 1, /*inverse=*/true, front, tail, nullptr, nullptr);
  scale_outputs(re, im, size_, simd::kLanes<T>, front, tail);
}

template <class T>
void FftPlan::forward_parted(T* re, T* im, std::size_t parts, T* out_re, T* out_im) const {
  check_parts<T>(parts, size_);
  stages<T>(re, im, size_ / parts, parts, /*inverse=*/false, size_, 0, out_re, out_im);
}

template <class T>
void FftPlan::inverse_parted(T* re, T* im, std::size_t parts, std::size_t front,
                             std::size_t tail, T* out_re, T* out_im) const {
  check_parts<T>(parts, size_);
  if (front + tail >= size_) {
    front = size_;
    tail = 0;
  }
  stages<T>(re, im, size_ / parts, parts, /*inverse=*/true, front, tail, out_re, out_im);
  scale_outputs(out_re, out_im, size_, simd::kLanes<T> / parts, front, tail);
}

template void FftPlan::forward_lanes<double>(double*, double*) const;
template void FftPlan::forward_lanes<float>(float*, float*) const;
template void FftPlan::inverse_pruned_lanes<double>(double*, double*, std::size_t,
                                                    std::size_t) const;
template void FftPlan::inverse_pruned_lanes<float>(float*, float*, std::size_t,
                                                   std::size_t) const;
template void FftPlan::forward_parted<double>(double*, double*, std::size_t, double*,
                                              double*) const;
template void FftPlan::forward_parted<float>(float*, float*, std::size_t, float*,
                                             float*) const;
template void FftPlan::inverse_parted<double>(double*, double*, std::size_t, std::size_t,
                                              std::size_t, double*, double*) const;
template void FftPlan::inverse_parted<float>(float*, float*, std::size_t, std::size_t,
                                             std::size_t, float*, float*) const;

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
