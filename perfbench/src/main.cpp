// headtalk_perfbench — the serving benchmark's driver.
//
//   headtalk_perfbench --workload utterance_open --seed 1 --seconds 10 --trace 0
//       --serve-bin <headtalk_serve> --work-dir <dir> [--commit <sha>]
//
// perfbench/run.py builds this and the daemon, then runs it. It prints a
// stamp line, a table of every metric by name and unit, and as its last line
// the result object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exit status 1 when any served verdict is wrong or any request failed.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "dsp/simd/dispatch.h"
#include "perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

/// Daemon start-ups per run; setup_s is their median.
constexpr std::size_t kSetupSpawns = 9;
/// Slices of the timed window the latency percentiles are taken over; at
/// the default 20 s every slice of every workload holds more than 200
/// decisions, so its p95 has at least ten beyond it.
constexpr std::size_t kSlices = 4;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

Options parse_options(int argc, char** argv) {
  Options options;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) throw std::invalid_argument(argv[i]);
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags take one value each");
  const auto need = [&](const char* key) {
    const auto it = args.find(key);
    if (it == args.end()) throw std::invalid_argument(std::string("missing --") + key);
    return it->second;
  };
  options.workload_name = need("workload");
  if (options.workload_name == "utterance_open") {
    options.workload = Workload::kUtteranceOpen;
  } else if (options.workload_name == "utterance_closed") {
    options.workload = Workload::kUtteranceClosed;
  } else if (options.workload_name == "stream_paced") {
    options.workload = Workload::kStreamPaced;
  } else {
    throw std::invalid_argument("unknown workload " + options.workload_name);
  }
  options.seed = std::stoull(need("seed"));
  options.seconds = std::stod(need("seconds"));
  options.trace = need("trace") == "1";
  options.serve_bin = fs::absolute(need("serve-bin"));
  const fs::path base = fs::absolute(need("work-dir"));
  options.commit = args.count("commit") ? args["commit"] : "unknown";
  options.work_dir = base / ("run-" + options.workload_name + "-" +
                             std::to_string(options.seed) + "-" + std::to_string(::getpid()));
  options.trace_dir = base / "traces";
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  options.connections = static_cast<std::size_t>(std::clamp(nproc, 1L, 8L));
  if (options.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  return options;
}

/// A latency sample: when its decision arrived, and how long it took.
struct Sample {
  double received = 0.0;
  double seconds = 0.0;
};

/// Quantile q of the samples in each of kSlices equal slices of the window
/// (by arrival), then the median slice: a burst of contention on a shared
/// host moves one slice, not the figure.
double sliced_quantile(const std::vector<Sample>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(
      samples.begin(), samples.end(),
      [](const Sample& a, const Sample& b) { return a.received < b.received; });
  const double span = std::max(hi->received - lo->received, 1e-9);
  std::vector<std::vector<double>> slices(kSlices);
  for (const auto& sample : samples) {
    const auto k = static_cast<std::size_t>((sample.received - lo->received) / span *
                                            static_cast<double>(kSlices));
    slices[std::min(k, kSlices - 1)].push_back(sample.seconds);
  }
  std::vector<double> per_slice;
  for (const auto& slice : slices) {
    if (!slice.empty()) per_slice.push_back(quantile(slice, q));
  }
  return quantile(per_slice, 0.5);
}

/// The decisions of a run as latency samples.
struct Timed {
  std::vector<Sample> utterance;  ///< first chunk due (open loop) or sent → verdict
  std::vector<Sample> endpoint;   ///< END_OF_UTTERANCE / close chunk sent → verdict
  std::vector<double> outside;    ///< endpoint latency minus the daemon's elapsed_seconds
  double decisions = 0.0;         ///< timed decisions
  double all_decisions = 0.0;     ///< every decision inside the CPU window
};

Timed timed_samples(const Options& options, const LoadResult& load) {
  Timed t;
  if (options.workload == Workload::kStreamPaced) {
    for (const auto& event : load.events) {
      t.all_decisions += 1.0;
      if (!event.timed) continue;
      t.decisions += 1.0;
      t.utterance.push_back({event.received, event.utterance_latency});
      t.endpoint.push_back({event.received, event.endpoint_latency});
      t.outside.push_back(event.endpoint_latency - event.frame.decision.elapsed_seconds);
    }
    return t;
  }
  for (const auto& request : load.requests) {
    if (!request.timed || !request.answered) continue;
    t.decisions += 1.0;
    const double endpoint = request.received - request.endpoint_sent;
    t.utterance.push_back({request.received, request.received - request.scheduled});
    t.endpoint.push_back({request.received, endpoint});
    t.outside.push_back(endpoint - request.decision.elapsed_seconds);
  }
  t.all_decisions = t.decisions;
  return t;
}

std::vector<Metric> end_to_end(const Options& options, const LoadResult& load,
                               const Timed& timed, double setup, double rss) {
  const double window = options.workload == Workload::kStreamPaced
                            ? options.seconds
                            : load.window_end - load.window_start;
  const double cpu = load.cpu_end - load.cpu_start;
  return {
      {"setup_s", setup, "s"},
      {"utterance_p50_ms", 1e3 * sliced_quantile(timed.utterance, 0.50), "ms"},
      {"utterance_p95_ms", 1e3 * sliced_quantile(timed.utterance, 0.95), "ms"},
      {"decisions_per_s", window > 0.0 ? timed.decisions / window : 0.0, "1/s"},
      {"cpu_ms_per_decision",
       timed.all_decisions > 0.0 ? 1e3 * cpu / timed.all_decisions : 0.0, "ms"},
      {"cpu_ms_per_audio_s", load.audio_seconds > 0.0 ? 1e3 * cpu / load.audio_seconds : 0.0,
       "ms/s"},
      {"peak_rss_mb", rss, "MiB"},
  };
}

/// Per-layer figures of the served run. Endpoint-to-verdict is one of them
/// rather than an end-to-end metric: on a stream it is ~0.2 ms, below the
/// scheduling jitter of a shared host, so its tail does not repeat run to
/// run. outside_score is what the daemon's own scoring time does not cover:
/// wire, read/parse, queueing and write-back.
std::vector<Metric> harness_layers(const LoadResult& load, const Timed& timed) {
  return {
      {"serve.endpoint_p50_ms", 1e3 * sliced_quantile(timed.endpoint, 0.50), "ms"},
      {"serve.endpoint_p95_ms", 1e3 * sliced_quantile(timed.endpoint, 0.95), "ms"},
      {"serve.outside_score_p50_ms", 1e3 * quantile(timed.outside, 0.50), "ms"},
      {"serve.outside_score_p95_ms", 1e3 * quantile(timed.outside, 0.95), "ms"},
      {"driver.lag_p95_ms", 1e3 * quantile(load.lag_seconds, 0.95), "ms"},
      {"driver.connect_ms", 1e3 * load.connect_seconds, "ms"},
  };
}

int run(const Options& options) {
  fs::create_directories(options.work_dir);
  fs::current_path(options.work_dir);
  const Inputs inputs = make_inputs(options);
  const core::HeadTalkPipeline pipeline = load_pipeline(inputs.models_dir);
  const fs::path store =
      options.workload == Workload::kUtteranceClosed ? inputs.store_dir : fs::path();

  // Set-up: spawn → first HELLO_OK, several times; the last daemon serves.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t i = 0; i < kSetupSpawns; ++i) {
    daemon.reset();
    daemon = std::make_unique<Daemon>(options, inputs.models_dir, store, std::to_string(i));
    setups.push_back(daemon->setup_seconds());
  }

  LoadResult load = run_load(options, inputs, *daemon);
  const double rss = daemon->peak_rss_mb();
  const auto counters = daemon->scrape_counters();
  const int exit_status = daemon->stop();
  const GateResult gate = check_load(options, inputs, pipeline, load, counters);

  std::size_t failed = load.errors + load.abandoned + gate.mismatches + gate.missed_utterances;
  if (!gate.counters_match) ++failed;
  if (exit_status != 0) ++failed;
  const std::size_t attempted = std::max<std::size_t>(1, gate.attempted);

  const Timed timed = timed_samples(options, load);
  std::vector<Metric> metrics = end_to_end(options, load, timed, quantile(setups, 0.5), rss);
  std::vector<Metric> layers = harness_layers(load, timed);
  if (options.trace) {
    std::size_t disagreements = 0;
    for (const auto& [name, metric] : run_traced(options, inputs, pipeline, load, disagreements)) {
      layers.push_back({name, metric.value, metric.unit});
    }
    failed += disagreements;
  }

  const bool correct = failed == 0;

  // Stamp + human-readable table, then the result object as the last line.
  std::cout << "{\"stamp\":{\"workload\":\"" << options.workload_name
            << "\",\"seed\":" << options.seed << ",\"seconds\":" << number(options.seconds)
            << ",\"trace\":" << (options.trace ? 1 : 0)
            << ",\"commit\":\"" << json_escape(options.commit)
            << "\",\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
            << ",\"cpu_model\":\"" << json_escape(cpu_model())
            << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
            << "\",\"simd\":\"" << dsp::simd::level_name(dsp::simd::active_level())
            << "\",\"connections\":" << options.connections
            << ",\"warmup_per_connection\":" << kWarmupPerConnection
            << ",\"setup_spawns\":" << kSetupSpawns << "}}\n";
  std::printf("%-34s %16s  %s\n", "metric", "value", "unit");
  for (const auto& m : metrics) std::printf("%-34s %16.4f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%-34s %16.4f  %s\n", "fail_ratio",
              static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  std::printf("%-34s %16.4f  %s\n", "segmentation_recall", gate.segmentation_recall, "ratio");
  for (const auto& m : layers) std::printf("%-34s %16.4f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& note : gate.notes) std::printf("gate: %s\n", note.c_str());
  if (load.errors + load.abandoned > 0) {
    std::printf("load: %zu connection errors, %zu abandoned requests\n", load.errors,
                load.abandoned);
  }
  if (exit_status != 0) std::printf("daemon exited with status %d\n", exit_status);

  const auto& reported = options.trace ? layers : metrics;
  std::cout << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
            << ",\"failed\":" << failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    std::cout << (i ? "," : "") << "\"" << reported[i].name << "\":{\"value\":"
              << number(reported[i].value) << ",\"unit\":\"" << reported[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    options = perfbench::parse_options(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "headtalk_perfbench: %s\n", error.what());
    return 2;
  }
  int code = 1;
  try {
    code = perfbench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "headtalk_perfbench: error: %s\n", error.what());
    code = 1;
  }
  std::error_code ignored;
  perfbench::fs::current_path(options.work_dir.parent_path(), ignored);
  perfbench::fs::remove_all(options.work_dir, ignored);
  return code;
}
