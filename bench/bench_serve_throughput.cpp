// Serving throughput: closed-loop clients against an in-process daemon.
//
// Spins up the serve::Server on a temp Unix socket with a trained (tiny,
// synthetic) pipeline, drives it with concurrent closed-loop clients —
// each connection scores its utterances back-to-back — and reports RPS
// plus client-observed p50/p95/p99 latency. The perf record gains the
// same four numbers (rps, p50_seconds, p95_seconds, p99_seconds), so CI
// tracks serving regressions exactly like collection-cost regressions.
//
// A second phase repeats the run with the admin plane attached and a
// scraper thread polling GET /metrics, answering "does being observed
// cost throughput?": the record gains rps_with_scraper, admin_scrapes,
// and admin_scrape_p95_seconds.
//
// Knobs: $HEADTALK_SERVE_BENCH_CLIENTS (default 8) and
// $HEADTALK_SERVE_BENCH_UTTERANCES per client (default 3).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <random>
#include <thread>

#include "bench_common.h"
#include "core/pipeline.h"
#include "core/scoring_workspace.h"
#include "serve/admin.h"
#include "serve/client.h"
#include "serve/server.h"

using namespace headtalk;

namespace {

unsigned env_or(const char* name, unsigned fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const long value = std::strtol(env, nullptr, 10);
  return value > 0 ? static_cast<unsigned>(value) : fallback;
}

// Same synthetic-training shortcut as bench_runtime: scoring cost depends
// on feature dimension and model size, not on how the models were fit.
core::OrientationClassifier make_orientation() {
  core::OrientationFeatureExtractor extractor;
  const auto dim = extractor.dimension(4);
  std::mt19937 rng(1);
  std::normal_distribution<double> g(0.0, 1.0);
  ml::Dataset data;
  for (int i = 0; i < 80; ++i) {
    ml::FeatureVector a(dim), b(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      a[j] = g(rng) + 1.0;
      b[j] = g(rng) - 1.0;
    }
    data.add(std::move(a), core::kLabelFacing);
    data.add(std::move(b), core::kLabelNonFacing);
  }
  core::OrientationClassifier clf;
  clf.train(data);
  return clf;
}

core::LivenessDetector make_liveness() {
  core::LivenessFeatureExtractor extractor;
  const auto dim = extractor.dimension();
  std::mt19937 rng(2);
  std::normal_distribution<double> g(0.0, 1.0);
  ml::Dataset data;
  for (int i = 0; i < 80; ++i) {
    ml::FeatureVector a(dim), b(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      a[j] = g(rng) + 1.0;
      b[j] = g(rng) - 1.0;
    }
    data.add(std::move(a), core::kLabelLive);
    data.add(std::move(b), core::kLabelReplay);
  }
  core::LivenessDetector det;
  det.train(data);
  return det;
}

struct PhaseResult {
  std::vector<double> latencies;  ///< sorted, client-observed per-utterance
  double wall = 0.0;
  std::uint64_t decisions = 0;
  bool ok = false;
};

/// One closed-loop fleet run against `server` (already started): every
/// client connects, scores `utterances` back-to-back, and the phase is ok
/// when nothing failed and every utterance got a decision.
PhaseResult run_clients(serve::Server& server, const std::filesystem::path& socket_path,
                        const audio::MultiBuffer& capture, unsigned clients,
                        unsigned utterances) {
  PhaseResult result;
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::string> failures(clients);
  const std::uint64_t decisions_before = server.stats().decisions;
  const auto wall_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned i = 0; i < clients; ++i) {
      threads.emplace_back([&, i] {
        try {
          auto client = serve::BlockingClient::connect_unix(socket_path);
          serve::Hello hello;
          hello.sample_rate_hz = static_cast<std::uint32_t>(capture.sample_rate());
          hello.channels = static_cast<std::uint16_t>(capture.channel_count());
          (void)client.hello(hello);
          for (unsigned u = 0; u < utterances; ++u) {
            const auto start = std::chrono::steady_clock::now();
            (void)client.score(capture);
            latencies[i].push_back(
                std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                    .count());
          }
        } catch (const std::exception& error) {
          failures[i] = error.what();
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  result.wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  for (const auto& per_client : latencies) {
    result.latencies.insert(result.latencies.end(), per_client.begin(),
                            per_client.end());
  }
  std::sort(result.latencies.begin(), result.latencies.end());
  bool failed = false;
  for (unsigned i = 0; i < clients; ++i) {
    if (!failures[i].empty()) {
      failed = true;
      std::fprintf(stderr, "client %u failed: %s\n", i, failures[i].c_str());
    }
  }
  // A client's score() returning means its DECISION arrived, but the
  // worker bumps the server counter just after sending — give the last
  // increment a moment to land before reading the delta.
  const auto expected =
      static_cast<std::uint64_t>(clients) * static_cast<std::uint64_t>(utterances);
  for (int spin = 0; spin < 200; ++spin) {
    result.decisions = server.stats().decisions - decisions_before;
    if (result.decisions >= expected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  result.ok = !failed && result.latencies.size() == expected;
  return result;
}

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank =
      static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

}  // namespace

int main() {
  bench::print_title("serve_throughput",
                     "inference daemon RPS and latency under concurrent clients");

  const unsigned clients = env_or("HEADTALK_SERVE_BENCH_CLIENTS", 8);
  const unsigned utterances = env_or("HEADTALK_SERVE_BENCH_UTTERANCES", 3);

  // One rendered capture, replayed by every client: the server still does
  // the full preprocess + feature + score work per utterance.
  sim::CollectorConfig cfg;
  cfg.cache_enabled = false;
  const sim::Collector collector(cfg);
  sim::SampleSpec spec;
  spec.location = {sim::GridRadial::kMiddle, 3.0};
  const audio::MultiBuffer capture = collector.capture(spec);

  const core::HeadTalkPipeline pipeline(make_orientation(), make_liveness());

  // Local baseline: the same utterances scored in-process, back to back over
  // one warm workspace, no socket. The gap to the daemon's per-decision wall
  // time is the serving overhead (framing + queueing), not scoring cost.
  {
    core::ScoringWorkspace workspace;
    (void)pipeline.score_capture(capture, core::VaMode::kHeadTalk, false, false,
                                 &workspace);  // warm-up
    const auto local_start = std::chrono::steady_clock::now();
    for (unsigned u = 0; u < utterances; ++u) {
      (void)pipeline.score_capture(capture, core::VaMode::kHeadTalk, false, false,
                                   &workspace);
    }
    const double local_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - local_start)
            .count();
    const double per_utt = local_seconds / static_cast<double>(utterances);
    std::printf("local baseline: %.1f ms/utterance (%u utterances, warm)\n",
                1000.0 * per_utt, utterances);
    bench::PerfRecorder::instance().set_metric("local_seconds_per_utt", per_utt);
  }

  serve::ServerConfig config;
  config.socket_path = std::filesystem::temp_directory_path() /
                       ("headtalk_bench_serve_" + std::to_string(::getpid()) + ".sock");
  config.max_pending = 2 * clients + 8;
  config.request_deadline_ms = 120000;  // scoring on a loaded 1-CPU host is slow
  serve::Server server(pipeline, config);
  server.start();

  // Phase 1: plain run, nobody watching.
  const PhaseResult plain =
      run_clients(server, config.socket_path, capture, clients, utterances);
  if (plain.latencies.empty()) {
    std::fprintf(stderr, "no decisions completed; not recording\n");
    return 1;
  }
  const double rps = static_cast<double>(plain.latencies.size()) / plain.wall;
  const double p50 = sorted_quantile(plain.latencies, 0.50);
  const double p95 = sorted_quantile(plain.latencies, 0.95);
  const double p99 = sorted_quantile(plain.latencies, 0.99);

  std::printf("clients %u  utterances/client %u  workers auto\n", clients, utterances);
  std::printf("decisions %llu  wall %.2f s  RPS %.2f\n",
              static_cast<unsigned long long>(plain.decisions), plain.wall, rps);
  std::printf("latency p50 %.1f ms  p95 %.1f ms  p99 %.1f ms\n", 1000.0 * p50,
              1000.0 * p95, 1000.0 * p99);
  bench::print_note(
      "closed-loop clients over a Unix socket; latency includes framing, the\n"
      "bounded queue, and the full preprocess+score path per utterance.");

  // Phase 2: same fleet with the admin plane attached and a scraper thread
  // polling GET /metrics (4 Hz so even smoke-sized runs collect a real
  // sample; a production Prometheus scrapes far less often). The rps gap
  // between phases is the cost of being observed.
  serve::AdminConfig admin_config;
  admin_config.socket_path =
      std::filesystem::temp_directory_path() /
      ("headtalk_bench_admin_" + std::to_string(::getpid()) + ".sock");
  serve::AdminServer admin(admin_config);
  admin.start();
  std::atomic<bool> stop_scraper{false};
  std::vector<double> scrape_seconds;
  std::size_t scrape_failures = 0;
  std::thread scraper([&] {
    while (!stop_scraper.load(std::memory_order_acquire)) {
      const auto start = std::chrono::steady_clock::now();
      const serve::AdminFetch fetch =
          serve::admin_get_unix(admin_config.socket_path, "/metrics");
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      if (fetch.status == 200) {
        scrape_seconds.push_back(elapsed);
      } else {
        ++scrape_failures;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  });
  const PhaseResult scraped =
      run_clients(server, config.socket_path, capture, clients, utterances);
  stop_scraper.store(true, std::memory_order_release);
  scraper.join();
  // Guarantee at least one scrape even if the fleet finished in < 250 ms
  // (after join — scrape_seconds is single-threaded again here).
  {
    const auto start = std::chrono::steady_clock::now();
    const serve::AdminFetch fetch =
        serve::admin_get_unix(admin_config.socket_path, "/metrics");
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (fetch.status == 200) {
      scrape_seconds.push_back(elapsed);
    } else {
      ++scrape_failures;
    }
  }
  admin.stop();
  server.stop();

  std::sort(scrape_seconds.begin(), scrape_seconds.end());
  const double rps_with_scraper =
      scraped.wall > 0.0 ? static_cast<double>(scraped.latencies.size()) / scraped.wall
                         : 0.0;
  const double scrape_p95 = sorted_quantile(scrape_seconds, 0.95);
  std::printf("with scraper: RPS %.2f (plain %.2f)  scrapes %zu  scrape p95 %.2f ms\n",
              rps_with_scraper, rps, scrape_seconds.size(), 1000.0 * scrape_p95);

  bench::PerfRecorder::instance().add_samples(plain.latencies.size() +
                                              scraped.latencies.size());
  bench::PerfRecorder::instance().set_metric("rps", rps);
  bench::PerfRecorder::instance().set_metric("p50_seconds", p50);
  bench::PerfRecorder::instance().set_metric("p95_seconds", p95);
  bench::PerfRecorder::instance().set_metric("p99_seconds", p99);
  bench::PerfRecorder::instance().set_metric("rps_with_scraper", rps_with_scraper);
  bench::PerfRecorder::instance().set_metric(
      "admin_scrapes", static_cast<double>(scrape_seconds.size()));
  bench::PerfRecorder::instance().set_metric("admin_scrape_p95_seconds", scrape_p95);
  const bool ok = plain.ok && scraped.ok && scrape_failures == 0;
  return ok ? 0 : 1;
}
