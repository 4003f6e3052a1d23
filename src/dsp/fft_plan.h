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
// either transforms a full row of independent signals at once (one per
// lane), or holds each of fewer signals as several *parts* of size/parts
// points — the first log2(size/parts) radix-2 stages never mix the parts —
// and finishes with the stages across them (the one-signal transforms of
// dsp/fft.h run one signal as up to four float64 parts; the operator's
// float32 transforms use two or eight). Either way each output is computed
// by the same butterflies, in the same order, as a textbook in-place
// radix-2 transform, so results are identical at every SIMD level. A plan
// holds its tables in float64 and, rounded once, in float32.
//
// Plans are pure lookup tables: the transforms keep all mutable state in
// the caller's buffers, so one plan may be used from any number of
// threads at once. Cache traffic is observable via the
// `dsp.fft_plan.hit` / `dsp.fft_plan.miss` counters (obs registry) and the
// local stats() snapshot.
#pragma once

#include <atomic>
#include <complex>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
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

  // Lane transforms, in float64 or float32 (T), with the lane kernels of
  // that type (simd::LaneKernels<T>). Each output equals the textbook
  // radix-2 transform of its signal computed in T, bit for bit, at every
  // SIMD level.
  //
  // forward_lanes / inverse_pruned_lanes: simd::kLanes<T> independent
  // size() transforms held in the lane layout of simd/kernels.h
  // (re/im[row * kLanes<T> + lane], size() rows), input rows in
  // bit-reversed order (row bit_reverse()[n] holds input n), output rows
  // in natural order.

  template <class T>
  void forward_lanes(T* re, T* im) const;
  /// Output rows [0, front) and [size - tail, size) of the inverse, with
  /// their 1/N scaling; every other row is left with unspecified values.
  /// The pruning is exact: whole butterfly ranges that feed only unneeded
  /// outputs are skipped (the needed index set is self-similar across the
  /// stages), and every kept output is computed by the same butterflies as
  /// in the full inverse, bit for bit. front + tail >= size() computes the
  /// full inverse. The GCC lag window keeps only ±max_lag of the
  /// correlation, which skips over half of the butterfly work for the
  /// operator's 512-point packed block transform.
  template <class T>
  void inverse_pruned_lanes(T* re, T* im, std::size_t front, std::size_t tail) const;

  /// G = kLanes<T> / parts forward transforms, each held as `parts` lanes
  /// of size() / parts rows (parts a power of two in [2, kLanes<T>], at
  /// most size()): position p of signal g at re/im[(p % rows) * kLanes<T>
  /// + (p / rows) * G + g], input positions bit-reversed. The stages within
  /// the parts run in place; the ones across them write the result to
  /// out_re/out_im in natural order, position p of signal g at
  /// [p * G + g]. `re`/`im` are clobbered.
  template <class T>
  void forward_parted(T* re, T* im, std::size_t parts, T* out_re, T* out_im) const;
  /// The inverse counterpart of forward_parted, pruned and scaled like
  /// inverse_pruned_lanes: rows [0, front) and [size - tail, size) of the
  /// natural-order out_re/out_im hold their outputs with the 1/N scaling.
  template <class T>
  void inverse_parted(T* re, T* im, std::size_t parts, std::size_t front, std::size_t tail,
                      T* out_re, T* out_im) const;

  /// The bit-reversal permutation of this size (an involution).
  [[nodiscard]] std::span<const std::uint32_t> bit_reverse() const noexcept {
    return bit_reverse_;
  }

  /// Twiddles for the real-FFT pack/unpack step of a *packed* transform of
  /// this plan's size, in T: entry k = exp(-i*pi*k/size), k = 0..size
  /// inclusive (float32: each entry rounded to nearest). rfft_half on
  /// fft_size N uses the plan of size N/2 and reads entry k as
  /// exp(-2*pi*i*k/N); irfft_half uses the conjugate.
  template <class T>
  [[nodiscard]] std::span<const std::complex<T>> pack_twiddles() const noexcept {
    if constexpr (std::is_same_v<T, float>) {
      return pack_twiddles_f_;
    } else {
      return pack_twiddles_;
    }
  }

 private:
  /// The radix-2 stages over data in the lane layout: stages len <= rows
  /// run within lanes; with parts > 1 the longer ones run across the
  /// parts, in natural order into out_re/out_im. Stage butterflies are
  /// pruned to the [0, front) ∪ [size - tail, size) outputs.
  template <class T>
  void stages(T* re, T* im, std::size_t rows, std::size_t parts, bool inverse,
              std::size_t front, std::size_t tail, T* out_re, T* out_im) const;
  /// The interleaved stage twiddles in T.
  template <class T>
  [[nodiscard]] const T* twiddle_table() const noexcept;

  std::size_t size_;
  std::vector<std::uint32_t> bit_reverse_;  ///< permutation, size entries
  std::vector<Complex> twiddles_;  ///< forward stage tables, packed len=2..N
  std::vector<Complex> pack_twiddles_;  ///< size+1 real-pack factors
  std::vector<std::complex<float>> twiddles_f_;       ///< twiddles_ in float32
  std::vector<std::complex<float>> pack_twiddles_f_;  ///< pack_twiddles_ in float32
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
