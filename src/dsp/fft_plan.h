// Cached FFT plans: precomputed twiddle factors and bit-reversal tables.
//
// Building a radix-2 plan costs ~2N sin/cos evaluations — comparable to the
// butterflies themselves — and every scoring path in the repo (the block
// STFT, pair GCC and directivity transforms, the liveness STFT) transforms
// the same handful of sizes over and over. FftPlanCache interns one immutable plan per size behind a
// mutex and hands out shared_ptrs, so concurrent serve workers share tables
// without copying and a plan stays valid even if the cache is cleared while
// a transform is in flight.
//
// Every transform runs on the lane kernels of dsp/simd/kernels.h: a plan
// either transforms kFftLanes independent signals at once (one per lane),
// or holds one signal as four lanes of size/4 points — the first
// log2(size/4) radix-2 stages never mix the quarters — and finishes with
// the two cross-lane stages. Either way each output is computed by the
// same butterflies, in the same order, as a textbook in-place radix-2
// transform, so results are identical at every SIMD level.
//
// Plans are pure lookup tables: forward()/inverse() keep all mutable state
// in the caller's buffer, so one plan may be used from any number of
// threads at once. Cache traffic is observable via the
// `dsp.fft_plan.hit` / `dsp.fft_plan.miss` counters (obs registry) and the
// local stats() snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "dsp/fft.h"
#include "dsp/simd/kernels.h"

namespace headtalk::dsp {

/// An immutable radix-2 FFT plan for one power-of-two size.
class FftPlan {
 public:
  /// Throws std::invalid_argument unless `size` is a power of two.
  explicit FftPlan(std::size_t size);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// In-place forward transform; `x.size()` must equal size().
  void forward(std::vector<Complex>& x) const;
  /// In-place inverse transform (includes the 1/N scaling).
  void inverse(std::vector<Complex>& x) const;

  /// Output-pruned inverse transform: only outputs x[0..front) and
  /// x[size-tail..size) are produced (including their 1/N scaling); every
  /// other slot is left with unspecified garbage. The pruning is *exact* —
  /// it computes the same butterflies as a full inverse(), so the outputs
  /// match it bit for bit — because the needed index set is self-similar
  /// across combine stages, so whole butterfly ranges can be skipped
  /// without approximation. Used by the GCC lag-window inverse, which
  /// keeps only ±max_lag of the cross-correlation: for the operator's
  /// 512-point packed block transform and the array's 13-sample lag span
  /// this skips over half of the butterfly work.
  /// front + tail must be <= size; front, tail >= 1.
  void inverse_pruned(std::vector<Complex>& x, std::size_t front,
                      std::size_t tail) const;

  // Lane transforms: kFftLanes independent size() transforms held in the
  // lane layout of simd/kernels.h (re/im[row * kFftLanes + lane], size()
  // rows), input rows in bit-reversed order (row bit_reverse()[n] holds
  // input n), output rows in natural order. Each lane equals forward() /
  // inverse_pruned() of its own signal bit for bit.

  void forward_lanes(double* re, double* im) const;
  /// Output rows [0, front) and [size - tail, size) of the inverse, with
  /// their 1/N scaling; front + tail >= size() computes the full inverse.
  void inverse_pruned_lanes(double* re, double* im, std::size_t front,
                            std::size_t tail) const;

  /// One forward transform held as four lanes of size()/4 rows (size() >=
  /// 4): position p at re/im[(p % (size/4)) * kFftLanes + p / (size/4)],
  /// input positions bit-reversed, output positions natural. Equals
  /// forward() bit for bit.
  void forward_quartered(double* re, double* im) const;

  /// The bit-reversal permutation of this size (an involution).
  [[nodiscard]] std::span<const std::uint32_t> bit_reverse() const noexcept {
    return bit_reverse_;
  }

  /// Twiddles for the real-FFT pack/unpack step of a *packed* transform of
  /// this plan's size: entry k = exp(-i*pi*k/size), k = 0..size inclusive.
  /// rfft_half on fft_size N uses the plan of size N/2 and reads entry k
  /// as exp(-2*pi*i*k/N); irfft_half uses the conjugate.
  [[nodiscard]] std::span<const Complex> real_pack_twiddles() const noexcept {
    return pack_twiddles_;
  }

 private:
  void transform(std::vector<Complex>& x, bool inverse, std::size_t front,
                 std::size_t tail) const;
  /// The radix-2 stages over data in the lane layout: stages len <= rows
  /// run within lanes, longer ones across the quarters. Stage butterflies
  /// are pruned to the [0, front) ∪ [size - tail, size) outputs.
  void stages(double* re, double* im, std::size_t rows, bool inverse,
              std::size_t front, std::size_t tail) const;

  std::size_t size_;
  std::vector<std::uint32_t> bit_reverse_;  ///< permutation, size entries
  std::vector<Complex> twiddles_;  ///< forward stage tables, packed len=2..N
  std::vector<Complex> pack_twiddles_;  ///< size+1 real-pack factors
};

/// Snapshot of cache traffic since process start (or the last clear() does
/// not reset these — they are cumulative like the obs counters).
struct FftPlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t plans = 0;  ///< currently interned plan count
};

/// Thread-safe interning cache, one plan per size. Use the process-global
/// instance; tests may disable it to force cold (plan-per-call) behaviour.
class FftPlanCache {
 public:
  static FftPlanCache& global();

  /// Returns the interned plan for `size`, building it on first use.
  /// When the cache is disabled, builds a fresh plan every call (counted
  /// as a miss). Throws std::invalid_argument for non-power-of-two sizes.
  [[nodiscard]] std::shared_ptr<const FftPlan> get(std::size_t size);

  [[nodiscard]] FftPlanCacheStats stats() const;

  /// Enables/disables interning; returns the previous setting. Disabling
  /// does not drop already-interned plans (call clear() for that).
  bool set_enabled(bool enabled) noexcept;
  [[nodiscard]] bool enabled() const noexcept;

  /// Drops all interned plans. In-flight users keep theirs alive via the
  /// shared_ptr; subsequent get() calls rebuild.
  void clear();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::size_t, std::shared_ptr<const FftPlan>> plans_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<bool> enabled_{true};
};

}  // namespace headtalk::dsp
