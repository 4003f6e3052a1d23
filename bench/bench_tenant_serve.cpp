// Multi-tenant serving cost: 1k-tenant store + AUTH'd daemon throughput.
//
// Phase 1 builds a synthetic fleet of enrolled tenants (default 1000),
// publishes them into a ModelStore in one generation, and measures the
// cold load (manifest + blobs from disk) plus the lock-free lookup path's
// per-op p50/p95 — the numbers that bound what AUTH and per-decision
// profile re-resolution can cost.
//
// Phase 2 answers "what does tenancy cost the serving plane?": the same
// closed-loop client fleet as bench_serve_throughput runs against one
// daemon in five alternating pairs of phases — tenant-less, then with
// every connection AUTH'd to a random tenant — and the record gains
// rps_tenantless / rps_authed (over all pairs) and rps_ratio (the median
// of the per-pair ratios).
// While the AUTH'd fleet is in flight, a reloader thread republishes a
// profile and hot-reloads the TenantService; the gate is that the
// generation moves and not a single connection drops.
//
// Knobs: $HEADTALK_TENANT_BENCH_TENANTS (default 1000),
// $HEADTALK_TENANT_BENCH_CLIENTS (8), $HEADTALK_TENANT_BENCH_UTTERANCES
// per client (3), $HEADTALK_TENANT_BENCH_LOOKUPS (100000).
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <random>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "serve/client.h"
#include "serve/server.h"
#include "tenant/enrollment.h"
#include "tenant/service.h"

using namespace headtalk;

namespace {

unsigned env_or(const char* name, unsigned fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const long value = std::strtol(env, nullptr, 10);
  return value > 0 ? static_cast<unsigned>(value) : fallback;
}

// Synthetic-training shortcut shared with bench_serve_throughput: serving
// cost depends on model size, not on how the models were fit.
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

tenant::SpeakerProfile make_profile(const std::string& tenant_id, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<core::FeatureCapture> features(3);
  for (auto& capture : features) {
    capture.liveness.resize(16);
    capture.orientation.resize(24);
    for (auto& v : capture.liveness) v = g(rng);
    for (auto& v : capture.orientation) v = g(rng);
  }
  tenant::EnrollmentConfig config;
  config.rule = tenant::PolicyRule::kAny;  // keep serving outcomes uniform
  return tenant::enroll_from_features(features, tenant_id, config);
}

struct PhaseResult {
  std::size_t decisions = 0;
  std::size_t failed_clients = 0;
  double wall = 0.0;
};

/// Closed-loop fleet; when `authed` each connection AUTHs to a distinct
/// tenant before scoring. A client counts as dropped on any exception.
PhaseResult run_clients(const std::filesystem::path& socket_path,
                        const audio::MultiBuffer& capture, unsigned clients,
                        unsigned utterances, bool authed, unsigned tenant_count) {
  PhaseResult result;
  std::vector<std::size_t> decisions(clients, 0);
  std::vector<std::string> failures(clients);
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
          if (authed) {
            const std::string tenant = "t" + std::to_string(i % tenant_count);
            const auto auth = client.auth(tenant);
            if (!auth.accepted) {
              failures[i] = "AUTH rejected: " + auth.reject.message;
              return;
            }
          }
          for (unsigned u = 0; u < utterances; ++u) {
            (void)client.score(capture);
            ++decisions[i];
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
  for (unsigned i = 0; i < clients; ++i) {
    result.decisions += decisions[i];
    if (!failures[i].empty()) {
      ++result.failed_clients;
      std::fprintf(stderr, "client %u failed: %s\n", i, failures[i].c_str());
    }
  }
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
  bench::print_title("tenant_serve",
                     "1k-tenant store load, lookup percentiles, AUTH'd serving RPS");

  const unsigned tenant_count = env_or("HEADTALK_TENANT_BENCH_TENANTS", 1000);
  const unsigned clients = env_or("HEADTALK_TENANT_BENCH_CLIENTS", 8);
  const unsigned utterances = env_or("HEADTALK_TENANT_BENCH_UTTERANCES", 3);
  const unsigned lookups = env_or("HEADTALK_TENANT_BENCH_LOOKUPS", 100000);

  const auto store_dir =
      std::filesystem::temp_directory_path() /
      ("headtalk_bench_tenants_" + std::to_string(::getpid()));
  std::filesystem::remove_all(store_dir);

  // ---- enrollment + publish (one generation) -----------------------------
  std::vector<tenant::SpeakerProfile> profiles;
  profiles.reserve(tenant_count);
  for (unsigned i = 0; i < tenant_count; ++i) {
    profiles.push_back(make_profile("t" + std::to_string(i), i + 1));
  }
  tenant::ModelStore writer(store_dir);
  const auto publish_start = std::chrono::steady_clock::now();
  writer.publish_many(profiles);
  const double publish_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - publish_start)
          .count();

  // ---- cold load ---------------------------------------------------------
  const auto load_start = std::chrono::steady_clock::now();
  tenant::TenantService service(store_dir);
  const double load_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - load_start)
          .count();
  if (service.tenant_count() != tenant_count) {
    std::fprintf(stderr, "store loaded %zu tenants, expected %u\n",
                 service.tenant_count(), tenant_count);
    return 1;
  }
  std::printf("tenants %u  publish %.1f ms  cold load %.1f ms\n", tenant_count,
              1000.0 * publish_seconds, 1000.0 * load_seconds);

  // ---- lookup percentiles ------------------------------------------------
  // A single lookup is tens of nanoseconds — far below clock resolution —
  // so time batches of 1000 and report the per-op quantiles across batches.
  constexpr unsigned kBatch = 1000;
  const unsigned batches = std::max(1u, lookups / kBatch);
  std::vector<double> per_op(batches);
  std::mt19937 rng(42);
  std::uniform_int_distribution<unsigned> pick(0, tenant_count - 1);
  std::size_t hits = 0;
  for (unsigned b = 0; b < batches; ++b) {
    std::array<std::string, 16> ids;
    for (auto& id : ids) id = "t" + std::to_string(pick(rng));
    const auto start = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < kBatch; ++i) {
      if (service.store().lookup(ids[i % ids.size()]) != nullptr) ++hits;
    }
    per_op[b] = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                    .count() /
                kBatch;
  }
  if (hits != static_cast<std::size_t>(batches) * kBatch) {
    std::fprintf(stderr, "lookup miss on an enrolled tenant\n");
    return 1;
  }
  std::sort(per_op.begin(), per_op.end());
  // Recorded in nanoseconds: the record's %.6f rendering would round a
  // tens-of-ns figure to zero if kept in seconds.
  const double lookup_p50_ns = 1e9 * sorted_quantile(per_op, 0.50);
  const double lookup_p95_ns = 1e9 * sorted_quantile(per_op, 0.95);
  std::printf("lookup p50 %.0f ns  p95 %.0f ns (per op, %u x %u batches)\n",
              lookup_p50_ns, lookup_p95_ns, batches, kBatch);

  // ---- serving: tenant-less vs AUTH'd ------------------------------------
  sim::CollectorConfig cfg;
  cfg.cache_enabled = false;
  const sim::Collector collector(cfg);
  sim::SampleSpec spec;
  spec.location = {sim::GridRadial::kMiddle, 3.0};
  const audio::MultiBuffer capture = collector.capture(spec);

  const core::HeadTalkPipeline pipeline(make_orientation(), make_liveness());
  serve::ServerConfig config;
  config.socket_path = std::filesystem::temp_directory_path() /
                       ("headtalk_bench_tserve_" + std::to_string(::getpid()) + ".sock");
  config.max_pending = 2 * clients + 8;
  config.request_deadline_ms = 120000;  // scoring on a loaded 1-CPU host is slow
  config.session.tenants = &service;
  serve::Server server(pipeline, config);
  server.start();

  // Warm-up pass so neither measured phase pays one-time costs (FFT plan
  // cache, worker spin-up, each worker's first use of its scoring
  // workspace) that would bias the ratio: as many connections as a phase
  // opens, so every worker a phase can reach is warm.
  (void)run_clients(config.socket_path, capture, clients, 1, false, tenant_count);

  // Tenant-less and AUTH'd phases alternate, kPairs of each, and the gate
  // reads the median of the per-pair RPS ratios: one short phase that a
  // scheduler hiccup lands on moves one pair's ratio, not the median.
  constexpr std::size_t kPairs = 5;
  const auto add_phase = [](PhaseResult& total, const PhaseResult& phase) {
    total.decisions += phase.decisions;
    total.failed_clients += phase.failed_clients;
    total.wall += phase.wall;
  };
  PhaseResult tenantless, authed;
  std::vector<double> pair_ratios;
  for (std::size_t p = 0; p < kPairs; ++p) {
    const PhaseResult plain =
        run_clients(config.socket_path, capture, clients, utterances, false, tenant_count);
    // AUTH'd fleet, nothing else running: this is the apples-to-apples
    // tenancy-overhead comparison.
    const PhaseResult auth =
        run_clients(config.socket_path, capture, clients, utterances, true, tenant_count);
    pair_ratios.push_back(plain.wall > 0.0 && auth.wall > 0.0 && plain.decisions > 0
                              ? (static_cast<double>(auth.decisions) / auth.wall) /
                                    (static_cast<double>(plain.decisions) / plain.wall)
                              : 0.0);
    add_phase(tenantless, plain);
    add_phase(authed, auth);
  }
  std::sort(pair_ratios.begin(), pair_ratios.end());
  const double rps_ratio = pair_ratios[kPairs / 2];

  // Reload-under-load gate, as its own phase so the reloader's own CPU use
  // doesn't pollute the ratio: a reloader hammers the service — each cycle
  // republishes one profile through a second store handle (bumping the
  // on-disk generation) and hot-reloads — while an AUTH'd fleet scores.
  // Zero dropped connections is the gate; the generation delta proves the
  // reloads actually landed.
  const std::uint64_t generation_before = service.generation();
  std::atomic<bool> stop_reloader{false};
  std::size_t reloads = 0;
  std::thread reloader([&] {
    tenant::ModelStore republisher(store_dir);
    (void)republisher.reload();
    unsigned seed = 90000;
    while (!stop_reloader.load(std::memory_order_acquire)) {
      republisher.publish(make_profile("t0", ++seed));
      (void)service.reload();
      ++reloads;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  const PhaseResult reloaded =
      run_clients(config.socket_path, capture, clients, utterances, true, tenant_count);
  stop_reloader.store(true, std::memory_order_release);
  reloader.join();
  server.stop();
  const std::uint64_t generation_delta = service.generation() - generation_before;

  const double rps_tenantless =
      tenantless.wall > 0.0 ? static_cast<double>(tenantless.decisions) / tenantless.wall
                            : 0.0;
  const double rps_authed =
      authed.wall > 0.0 ? static_cast<double>(authed.decisions) / authed.wall : 0.0;
  const std::size_t dropped =
      tenantless.failed_clients + authed.failed_clients + reloaded.failed_clients;
  std::printf("RPS tenant-less %.2f  AUTH'd %.2f  ratio %.3f (median of %zu pairs, "
              "%.3f .. %.3f)\n",
              rps_tenantless, rps_authed, rps_ratio, kPairs, pair_ratios.front(),
              pair_ratios.back());
  std::printf("reload phase: %zu hot reloads (generation +%llu), dropped "
              "connections overall: %zu\n",
              reloads, static_cast<unsigned long long>(generation_delta), dropped);
  bench::print_note(
      "the AUTH'd fleet re-resolves the tenant profile on every decision, so\n"
      "the ratio prices the whole tenancy path: AUTH, lock-free lookup, policy\n"
      "+ quota bookkeeping, and concurrent hot reloads.");

  auto& rec = bench::PerfRecorder::instance();
  rec.add_samples(tenantless.decisions + authed.decisions + reloaded.decisions);
  rec.set_metric("tenants", static_cast<double>(tenant_count));
  rec.set_metric("store_publish_seconds", publish_seconds);
  rec.set_metric("store_load_seconds", load_seconds);
  rec.set_metric("lookup_p50_ns", lookup_p50_ns);
  rec.set_metric("lookup_p95_ns", lookup_p95_ns);
  rec.set_metric("rps_tenantless", rps_tenantless);
  rec.set_metric("rps_authed", rps_authed);
  rec.set_metric("rps_ratio", rps_ratio);
  rec.set_metric("reloads", static_cast<double>(reloads));
  rec.set_metric("generation_delta", static_cast<double>(generation_delta));
  rec.set_metric("dropped_connections", static_cast<double>(dropped));

  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);

  const std::size_t expected =
      static_cast<std::size_t>(clients) * static_cast<std::size_t>(utterances);
  bool ok = dropped == 0 && tenantless.decisions == kPairs * expected &&
            authed.decisions == kPairs * expected && reloaded.decisions == expected &&
            reloads > 0 && generation_delta >= reloads;
  // Tenancy must be near-free next to the DSP-dominated scoring path: the
  // target is "within ~10%"; allow a little measurement slack on noisy
  // 1-CPU CI hosts but still fail on a real regression.
  if (rps_ratio < 0.80) {
    std::fprintf(stderr, "AUTH'd RPS fell to %.1f%% of tenant-less — tenancy is "
                 "costing real throughput\n", 100.0 * rps_ratio);
    ok = false;
  }
  return ok ? 0 : 1;
}
