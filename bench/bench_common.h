// Shared helpers for the experiment harness binaries.
//
// Each bench regenerates one table/figure of the paper and prints measured
// values next to the paper's reported numbers. Absolute agreement is not
// expected (the substrate is a synthetic room, not the authors' testbed);
// the *shape* — orderings, approximate factors, crossovers — is the claim
// each bench validates. See EXPERIMENTS.md for the recorded comparison.
//
// Every bench also appends a machine-readable perf record (wall time,
// samples collected, cache counters, worker count, and the host + commit
// that produced it: nproc, CPU model, build type, SIMD level, git sha) to
// $HEADTALK_BENCH_OUT/BENCH_<id>.json — one JSON object per line, one
// file per bench id — so CI can track bench cost without scraping the
// human output. Both views come from the same obs timers; there is no
// separately-measured "printed" number that can drift from the record.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "dsp/simd/dispatch.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "sim/collector.h"
#include "sim/datasets.h"
#include "sim/experiment.h"
#include "util/json.h"
#include "util/thread_pool.h"

// Configure-time stamps (bench/CMakeLists.txt); the fallbacks keep the
// header usable from a target that does not define them.
#ifndef HEADTALK_GIT_SHA
#define HEADTALK_GIT_SHA "unknown"
#endif
#ifndef HEADTALK_BUILD_TYPE
#define HEADTALK_BUILD_TYPE ""
#endif

namespace headtalk::bench {

/// The harness-wide collector configuration: a fixed identity universe so
/// every bench (and rerun) sees the same simulated world, with the on-disk
/// feature cache on so render cost is shared across binaries.
inline sim::Collector make_collector() { return sim::Collector(sim::CollectorConfig{}); }

/// Records one perf record per bench process, written at exit.
///
/// print_title() starts the record (bench id + wall clock), the collect
/// helpers accumulate the sample count, and the destructor of the
/// function-local singleton appends the finished record as one JSON line
/// to $HEADTALK_BENCH_OUT/BENCH_<id>.json (default out dir: bench/out).
class PerfRecorder {
 public:
  static PerfRecorder& instance() {
    static PerfRecorder recorder;
    return recorder;
  }

  void begin(const char* id, const char* description) {
    if (started_) return;  // first title wins; later sections share the record
    started_ = true;
    id_ = sanitize_id(id);
    title_ = id;
    (void)description;  // shown by print_title; the record keys on the id
    start_ = std::chrono::steady_clock::now();
  }

  void add_samples(std::size_t n) { samples_ += n; }

  /// Adds (or overwrites) an extra numeric field in the perf record —
  /// e.g. rps / p50_seconds for the serving bench. Keys must be plain
  /// [a-z0-9_] identifiers; values must be finite.
  void set_metric(const std::string& key, double value) {
    for (auto& [existing, slot] : metrics_) {
      if (existing == key) {
        slot = value;
        return;
      }
    }
    metrics_.emplace_back(key, value);
  }

  ~PerfRecorder() {
    if (!started_) return;
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    const std::filesystem::path out_dir = [] {
      if (const char* env = std::getenv("HEADTALK_BENCH_OUT"); env && *env) {
        return std::filesystem::path(env);
      }
      return std::filesystem::path("bench") / "out";
    }();
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const auto path = out_dir / ("BENCH_" + id_ + ".json");
    char line[1024];
    std::snprintf(line, sizeof line,
                  "{\"bench\":\"%s\",\"title\":\"%s\",\"wall_seconds\":%.6f,"
                  "\"samples\":%zu,\"cache_hits\":%llu,\"cache_misses\":%llu,"
                  "\"cache_stores\":%llu,\"jobs\":%u",
                  util::json_escape(id_).c_str(), util::json_escape(title_).c_str(),
                  wall_seconds, samples_,
                  static_cast<unsigned long long>(cache_hits_->value()),
                  static_cast<unsigned long long>(cache_misses_->value()),
                  static_cast<unsigned long long>(cache_stores_->value()),
                  util::default_jobs());
    std::string record(line);
    record += ",\"nproc\":" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
    const std::string build_type = HEADTALK_BUILD_TYPE;
    const std::pair<const char*, std::string> stamps[] = {
        {"cpu_model", cpu_model()},
        {"build_type", build_type.empty() ? "unknown" : build_type},
        {"simd_level_name", dsp::simd::level_name(dsp::simd::active_level())},
        {"git_sha", HEADTALK_GIT_SHA}};
    for (const auto& [key, value] : stamps) {
      record += ",\"" + std::string(key) + "\":\"" + util::json_escape(value) + "\"";
    }
    for (const auto& [key, value] : metrics_) {
      std::snprintf(line, sizeof line, ",\"%s\":%.6f", util::json_escape(key).c_str(),
                    value);
      record += line;
    }
    record += "}\n";
    // O_APPEND plus one write(2) of the whole line: POSIX appends are
    // atomic with respect to each other, so concurrently-exiting bench
    // processes (ctest -j) can share BENCH_<id>.json without interleaving
    // half-records — buffered ofstream appends flush in chunks and can't
    // promise that.
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    bool ok = fd >= 0;
    if (ok) {
      const ssize_t written = ::write(fd, record.data(), record.size());
      ok = written == static_cast<ssize_t>(record.size());
      ::close(fd);
    }
    if (!ok) {
      obs::log_warn("bench.record.write_failed", {{"path", path.string()}});
      return;
    }
    obs::log_info("bench.record.written", {{"path", path.string()}});
  }

  PerfRecorder(const PerfRecorder&) = delete;
  PerfRecorder& operator=(const PerfRecorder&) = delete;

 private:
  // Grabbing the registry references here forces Registry::global() to be
  // constructed before this singleton, hence destroyed after it — the
  // destructor above may safely read the counters at static teardown.
  PerfRecorder()
      : cache_hits_(&obs::Registry::global().counter("sim.cache.hit")),
        cache_misses_(&obs::Registry::global().counter("sim.cache.miss")),
        cache_stores_(&obs::Registry::global().counter("sim.cache.store")) {}

  /// The first "model name" of /proc/cpuinfo; "unknown" when unreadable.
  static std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) != 0) continue;
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      const auto start = line.find_first_not_of(' ', colon + 1);
      if (start != std::string::npos) return line.substr(start);
    }
    return "unknown";
  }

  /// "Fig. 5" -> "fig5", "serve_throughput" -> "serve_throughput".
  /// Underscores survive so multi-word bench ids stay readable in their
  /// BENCH_<id>.json filename (no pre-existing id contains one).
  static std::string sanitize_id(const char* id) {
    std::string out;
    for (const char* p = id; *p != '\0'; ++p) {
      const unsigned char c = static_cast<unsigned char>(*p);
      if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
        out.push_back(static_cast<char>(c));
      } else if (c >= 'A' && c <= 'Z') {
        out.push_back(static_cast<char>(c - 'A' + 'a'));
      }
    }
    return out.empty() ? "bench" : out;
  }

  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::Counter* cache_stores_;
  bool started_ = false;
  std::string id_;
  std::string title_;
  std::size_t samples_ = 0;
  std::vector<std::pair<std::string, double>> metrics_;
  std::chrono::steady_clock::time_point start_{};
};

inline void print_title(const char* id, const char* description) {
  PerfRecorder::instance().begin(id, description);
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, description);
  std::printf("================================================================\n");
}

inline void print_note(const char* text) { std::printf("%s\n", text); }

inline double pct(double fraction) { return 100.0 * fraction; }

/// Collects orientation samples with a heading so long renders are visibly
/// attributed in the bench output. Renders fan out across all available
/// workers ($HEADTALK_JOBS overrides); the sample order and values are
/// bit-identical to a serial collection, so bench numbers are unaffected.
/// The printed duration and the bench.collect_seconds histogram read the
/// same timer, so the human output cannot drift from the metrics dump.
inline std::vector<sim::OrientationSample> collect(const sim::Collector& collector,
                                                   const std::vector<sim::SampleSpec>& specs,
                                                   const char* what) {
  std::fprintf(stderr, "collecting %zu samples (%s) on %u workers...\n", specs.size(),
               what, util::default_jobs());
  static obs::Histogram& collect_seconds =
      obs::Registry::global().histogram("bench.collect_seconds");
  obs::Timer timer(&collect_seconds);
  auto samples = sim::collect_orientation(collector, specs);
  std::fprintf(stderr, "  done in %.1f s\n", timer.stop());
  PerfRecorder::instance().add_samples(samples.size());
  return samples;
}

inline std::vector<sim::OrientationSample> collect_liveness(
    const sim::Collector& collector, const std::vector<sim::SampleSpec>& specs,
    const char* what) {
  std::fprintf(stderr, "collecting %zu liveness samples (%s) on %u workers...\n",
               specs.size(), what, util::default_jobs());
  static obs::Histogram& collect_seconds =
      obs::Registry::global().histogram("bench.collect_seconds");
  obs::Timer timer(&collect_seconds);
  auto samples = sim::collect_liveness(collector, specs);
  std::fprintf(stderr, "  done in %.1f s\n", timer.stop());
  PerfRecorder::instance().add_samples(samples.size());
  return samples;
}

}  // namespace headtalk::bench
