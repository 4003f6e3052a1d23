#include "dsp/simd/dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace headtalk::dsp::simd {
namespace {

const Kernels* table_for(Level level) noexcept {
#if defined(HEADTALK_SIMD_X86)
  switch (level) {
    case Level::kAvx2:
      return &avx2_kernels();
    case Level::kSse2:
      return &sse2_kernels();
    case Level::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return &scalar_kernels();
}

Level detect_max_supported() noexcept {
#if defined(HEADTALK_SIMD_X86) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) {
    return Level::kAvx2;
  }
  if (__builtin_cpu_supports("sse2")) return Level::kSse2;
#endif
  return Level::kScalar;
}

Level clamp_to_supported(Level level) noexcept {
  const Level max = max_supported_level();
  return static_cast<int>(level) > static_cast<int>(max) ? max : level;
}

Level resolve_initial() noexcept {
  Level level = max_supported_level();
  if (const char* env = std::getenv("HEADTALK_SIMD"); env != nullptr && *env != '\0') {
    Level requested{};
    bool is_auto = false;
    if (!parse_level(env, requested, is_auto)) {
      std::fprintf(stderr,
                   "headtalk: ignoring unrecognized HEADTALK_SIMD=%s "
                   "(expected off|scalar|sse2|avx2|auto)\n",
                   env);
    } else if (!is_auto) {
      level = clamp_to_supported(requested);
      if (level != requested) {
        std::fprintf(stderr,
                     "headtalk: HEADTALK_SIMD=%s not supported on this CPU; "
                     "using %s\n",
                     env, level_name(level));
      }
    }
  }
  return level;
}

// The active kernel table. Resolved lazily on first use; set_level swaps
// it for tests. Relaxed ordering is enough — the table pointers are
// immutable statics and readers only need *some* valid table.
std::atomic<const Kernels*> g_active{nullptr};
std::atomic<int> g_level{-1};

const Kernels* ensure_resolved() noexcept {
  const Kernels* table = g_active.load(std::memory_order_acquire);
  if (table != nullptr) return table;
  const Level level = resolve_initial();
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
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool parse_level(const char* text, Level& out, bool& is_auto) noexcept {
  is_auto = false;
  if (text == nullptr) return false;
  if (std::strcmp(text, "off") == 0 || std::strcmp(text, "scalar") == 0 ||
      std::strcmp(text, "none") == 0) {
    out = Level::kScalar;
    return true;
  }
  if (std::strcmp(text, "sse2") == 0) {
    out = Level::kSse2;
    return true;
  }
  if (std::strcmp(text, "avx2") == 0) {
    out = Level::kAvx2;
    return true;
  }
  if (std::strcmp(text, "auto") == 0 || std::strcmp(text, "best") == 0) {
    out = max_supported_level();
    is_auto = true;
    return true;
  }
  return false;
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
