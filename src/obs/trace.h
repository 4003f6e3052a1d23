// Scoped-span tracing with Chrome trace-event export.
//
//   obs::set_tracing_enabled(true);            // or --trace-out on the tools
//   { obs::ScopedSpan span("pipeline.incremental_accumulate"); ... }
//   obs::Tracer::global().write_chrome_trace_file("trace.json");
//
// The file loads in chrome://tracing and in Perfetto (ui.perfetto.dev) as
// complete ("X") events, one lane per worker thread.
//
// Cost model: when tracing is disabled (the default) a ScopedSpan is one
// relaxed atomic load and two null-pointer writes — safe to leave in the
// hottest paths. When enabled, each span records into a per-thread ring
// (no lock on the record path; registration of a new thread takes a mutex
// once). Rings hold the most recent kRingCapacity spans per thread; older
// spans are overwritten and reported as `dropped` on export. Exiting
// threads return their ring to a free list, so lane ids ("tids") are
// worker slots, not OS thread ids, and total memory stays bounded by the
// peak concurrent thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <iosfwd>

namespace headtalk::obs {

namespace detail {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace detail

[[nodiscard]] inline bool tracing_enabled() noexcept {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}
void set_tracing_enabled(bool enabled) noexcept;

/// Microseconds on the steady clock (arbitrary epoch; only differences and
/// intra-trace ordering are meaningful).
[[nodiscard]] std::uint64_t now_micros() noexcept;

class Tracer {
 public:
  static Tracer& global();

  /// Records one completed span into the calling thread's ring. `name`
  /// must outlive the tracer (string literals in practice).
  void record(const char* name, std::uint64_t start_us, std::uint64_t duration_us);

  /// Chrome trace-event JSON ({"traceEvents":[...]}). Call after the spans
  /// of interest have finished; spans recorded concurrently with the
  /// export may be missed.
  void write_chrome_trace(std::ostream& out) const;
  /// Returns false (after logging a warning) when the file cannot be written.
  bool write_chrome_trace_file(const std::filesystem::path& path) const;

  /// Spans currently held across all rings (capped by ring capacity).
  [[nodiscard]] std::size_t span_count() const;
  /// Spans overwritten because a ring wrapped.
  [[nodiscard]] std::size_t dropped_count() const;

  /// Empties every ring (test helper; do not race with active spans).
  void clear();
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept
      : name_(tracing_enabled() ? name : nullptr),
        start_us_(name_ != nullptr ? now_micros() : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (name_ != nullptr) {
      Tracer::global().record(name_, start_us_, now_micros() - start_us_);
    }
  }

 private:
  const char* name_;
  std::uint64_t start_us_;
};

}  // namespace headtalk::obs
