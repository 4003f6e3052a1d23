#include "dsp/simd/dispatch.h"

#include <atomic>

namespace headtalk::dsp::simd {
namespace {

const Kernels* table_for(Level level) noexcept {
#if defined(HEADTALK_X86)
  if (level == Level::kAvx2) return &avx2_kernels();
#else
  (void)level;
#endif
  return &scalar_kernels();
}

Level detect_max_supported() noexcept {
#if defined(HEADTALK_X86) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level clamp_to_supported(Level level) noexcept {
  const Level max = max_supported_level();
  return static_cast<int>(level) > static_cast<int>(max) ? max : level;
}

// The active kernel table. Resolved lazily on first use; set_level swaps
// it for tests. Relaxed ordering is enough — the table pointers are
// immutable statics and readers only need *some* valid table.
std::atomic<const Kernels*> g_active{nullptr};
std::atomic<int> g_level{-1};

const Kernels* ensure_resolved() noexcept {
  const Kernels* table = g_active.load(std::memory_order_acquire);
  if (table != nullptr) return table;
  const Level level = max_supported_level();
  table = table_for(level);
  // First writer wins; a concurrent resolver computes the same answer.
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  g_active.store(table, std::memory_order_release);
  return table;
}

}  // namespace

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Level max_supported_level() noexcept {
  static const Level detected = detect_max_supported();
  return detected;
}

Level active_level() noexcept {
  ensure_resolved();
  return static_cast<Level>(g_level.load(std::memory_order_relaxed));
}

Level set_level(Level level) noexcept {
  const Level previous = active_level();
  const Level clamped = clamp_to_supported(level);
  g_level.store(static_cast<int>(clamped), std::memory_order_relaxed);
  g_active.store(table_for(clamped), std::memory_order_release);
  return previous;
}

const Kernels& kernels() noexcept { return *ensure_resolved(); }

}  // namespace headtalk::dsp::simd
