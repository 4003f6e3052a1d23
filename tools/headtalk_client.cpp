// headtalk_client — scores WAV captures against a running headtalk_serve.
//
//   headtalk_client --socket /tmp/headtalk.sock --wav capture.wav
//   headtalk_client --socket /tmp/headtalk.sock --wav a.wav,b.wav --parallel 8
//   headtalk_client --admin-socket /tmp/headtalk-admin.sock --admin-get /metrics
//   headtalk_client --admin-port 7072 --watch
//
// Each connection sends HELLO, then streams every WAV as one utterance and
// prints the DECISION. With --parallel N, N connections run concurrently
// (each scoring the full WAV list) — a quick load generator and the
// workhorse of the serve smoke test. Exit status is nonzero when any
// utterance failed to produce a DECISION.
//
// The admin modes talk to the daemon's telemetry plane instead of scoring:
// --admin-get TARGET prints one response body (nonzero exit unless HTTP
// 200), and --watch polls /metrics.json + /stats.json every --interval-ms,
// rendering a refreshing per-stage latency / qps view. --admin-merge
// "sockA,sockB,..." scrapes /metrics.json from several daemons' admin
// sockets and prints one obs::merge'd snapshot.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "audio/wav_io.h"
#include "cli/args.h"
#include "core/pipeline.h"
#include "obs/export.h"
#include "serve/admin.h"
#include "serve/client.h"
#include "tenant/policy.h"
#include "util/json.h"

using namespace headtalk;

namespace {

std::vector<std::filesystem::path> parse_wavs(const std::string& text) {
  std::vector<std::filesystem::path> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.emplace_back(item);
  }
  if (out.empty()) throw cli::ArgsError("--wav: no capture given");
  return out;
}

serve::BlockingClient connect(const cli::ArgParser& args) {
  if (args.has("--socket")) {
    return serve::BlockingClient::connect_unix(args.get("--socket"));
  }
  if (args.has("--tcp-port")) {
    return serve::BlockingClient::connect_tcp(static_cast<int>(args.get_int("--tcp-port")));
  }
  throw cli::ArgsError("one of --socket or --tcp-port is required");
}

serve::AdminFetch admin_fetch(const cli::ArgParser& args, std::string_view target) {
  const std::string admin_socket = args.get("--admin-socket");
  const long admin_port = args.get_int("--admin-port");
  if (!admin_socket.empty()) return serve::admin_get_unix(admin_socket, target);
  if (admin_port > 0) return serve::admin_get_tcp(static_cast<int>(admin_port), target);
  throw cli::ArgsError("admin modes need --admin-socket or --admin-port");
}

serve::AdminFetch admin_post(const cli::ArgParser& args, std::string_view target) {
  const std::string admin_socket = args.get("--admin-socket");
  const long admin_port = args.get_int("--admin-port");
  if (!admin_socket.empty()) return serve::admin_post_unix(admin_socket, target);
  if (admin_port > 0) return serve::admin_post_tcp(static_cast<int>(admin_port), target);
  throw cli::ArgsError("admin modes need --admin-socket or --admin-port");
}

/// Report suffix for a decision's tenant-policy fields; empty on a
/// tenant-less connection (policy_applied false).
std::string policy_suffix(const serve::DecisionFrame& d) {
  if (!d.policy_applied) return "";
  char text[96];
  std::snprintf(text, sizeof text, ", policy %s (%s, match %.3f)",
                d.policy_allowed ? "allowed" : "rejected",
                std::string(tenant::policy_reason_name(
                                tenant::policy_reason_from_byte(d.policy_reason)))
                    .c_str(),
                d.match_score);
  return text;
}

std::uint64_t decision_total(const obs::MetricsSnapshot& snapshot) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("pipeline.decision.", 0) == 0) total += value;
  }
  return total;
}

/// One --watch frame: a header line (uptime / rss / connections / qps from
/// the decision-counter delta) and a per-stage latency table computed from
/// the shipped histogram buckets.
void render_watch_frame(const obs::MetricsSnapshot& snapshot,
                        const util::JsonValue& stats, std::optional<double> qps) {
  double uptime = 0.0, rss_mib = 0.0;
  std::size_t connections = 0;
  if (const auto* v = stats.find("uptime_seconds")) uptime = v->as_number();
  if (const auto* v = stats.find("rss_bytes"); v != nullptr && v->as_number() > 0) {
    rss_mib = v->as_number() / (1024.0 * 1024.0);
  }
  if (const auto* v = stats.find("connections"); v != nullptr && v->is_array()) {
    connections = v->as_array().size();
  }
  // qps is a delta between two scrapes: the first frame has only one
  // sample, so it renders as "-" instead of a made-up number.
  char qps_text[32];
  if (qps.has_value()) {
    std::snprintf(qps_text, sizeof qps_text, "%6.1f", *qps);
  } else {
    std::snprintf(qps_text, sizeof qps_text, "%6s", "-");
  }
  std::printf(
      "headtalk --watch   uptime %8.1f s   rss %7.1f MiB   conns %2zu   "
      "decisions %llu   qps %s\n\n",
      uptime, rss_mib, connections,
      static_cast<unsigned long long>(decision_total(snapshot)), qps_text);
  std::printf("  %-22s %10s %10s %10s %10s\n", "stage", "count", "mean ms", "p50 ms",
              "p95 ms");
  constexpr std::string_view kPrefix = "pipeline.stage.";
  constexpr std::string_view kSuffix = "_seconds";
  for (const auto& [name, histogram] : snapshot.histograms) {
    if (name.rfind(kPrefix, 0) != 0) continue;
    std::string label = name.substr(kPrefix.size());
    if (label.size() > kSuffix.size() &&
        label.compare(label.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0) {
      label.resize(label.size() - kSuffix.size());
    }
    const double mean_ms =
        histogram.count > 0 ? 1e3 * histogram.sum / static_cast<double>(histogram.count)
                            : 0.0;
    std::printf("  %-22s %10llu %10.3f %10.3f %10.3f\n", label.c_str(),
                static_cast<unsigned long long>(histogram.count), mean_ms,
                1e3 * obs::snapshot_quantile(histogram, 0.5),
                1e3 * obs::snapshot_quantile(histogram, 0.95));
  }
  std::fflush(stdout);
}

int run_watch(const cli::ArgParser& args) {
  const long interval_ms = args.get_int("--interval-ms");
  const long frame_limit = args.get_int("--watch-count");
  if (interval_ms < 1) throw cli::ArgsError("--interval-ms must be >= 1");
  if (frame_limit < 0) throw cli::ArgsError("--watch-count must be >= 0");
  const bool tty = ::isatty(STDOUT_FILENO) == 1;
  std::uint64_t previous_decisions = 0;
  auto previous_time = std::chrono::steady_clock::now();
  bool have_previous = false;
  for (long frame = 0; frame_limit == 0 || frame < frame_limit; ++frame) {
    if (frame > 0) std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    const serve::AdminFetch metrics = admin_fetch(args, "/metrics.json");
    const serve::AdminFetch stats = admin_fetch(args, "/stats.json");
    if (metrics.status != 200 || stats.status != 200) {
      std::fprintf(stderr, "watch: scrape failed (/metrics.json %d, /stats.json %d)\n",
                   metrics.status, stats.status);
      return 1;
    }
    const obs::MetricsSnapshot snapshot = obs::parse_snapshot_json(metrics.body);
    const util::JsonValue stats_json = util::JsonValue::parse(stats.body);
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t decisions = decision_total(snapshot);
    std::optional<double> qps;
    if (have_previous) {
      const double dt = std::chrono::duration<double>(now - previous_time).count();
      // A counter that went backwards (daemon restarted between scrapes)
      // clamps to 0 rather than printing a huge unsigned wraparound.
      if (dt > 0.0 && decisions >= previous_decisions) {
        qps = static_cast<double>(decisions - previous_decisions) / dt;
      } else {
        qps = 0.0;
      }
    }
    previous_decisions = decisions;
    previous_time = now;
    have_previous = true;
    if (tty) std::fputs("\x1b[H\x1b[2J", stdout);
    render_watch_frame(snapshot, stats_json, qps);
  }
  return 0;
}

/// --admin-merge "sockA,sockB,...": scrape /metrics.json from each admin
/// socket and print one merged snapshot — counters sum, histograms add
/// bucket-wise — as JSON: one view over several daemons.
int run_admin_merge(const std::string& spec) {
  std::vector<obs::MetricsSnapshot> snapshots;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) continue;
    const serve::AdminFetch fetch = serve::admin_get_unix(item, "/metrics.json");
    if (fetch.status != 200) {
      std::fprintf(stderr, "admin-merge: %s /metrics.json: HTTP %d\n", item.c_str(),
                   fetch.status);
      return 1;
    }
    snapshots.push_back(obs::parse_snapshot_json(fetch.body));
  }
  if (snapshots.empty()) throw cli::ArgsError("--admin-merge: no sockets given");
  const obs::MetricsSnapshot merged = obs::merge(snapshots);
  std::fputs(obs::to_snapshot_json(merged).c_str(), stdout);
  std::fprintf(stderr, "admin-merge: merged %zu snapshots\n", snapshots.size());
  return 0;
}

/// --assert-p95 "name:seconds": scrape /metrics.json once and exit 0 only
/// if the named histogram has samples and its p95 is at or under the
/// threshold. Built for CI smoke scripts that gate on serving latency.
int run_assert_p95(const cli::ArgParser& args, const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    throw cli::ArgsError("--assert-p95 wants <histogram>:<seconds>");
  }
  const std::string name = spec.substr(0, colon);
  const double threshold = std::strtod(spec.c_str() + colon + 1, nullptr);
  if (!(threshold > 0.0)) throw cli::ArgsError("--assert-p95 threshold must be > 0");

  const serve::AdminFetch metrics = admin_fetch(args, "/metrics.json");
  if (metrics.status != 200) {
    std::fprintf(stderr, "assert-p95: /metrics.json returned HTTP %d\n",
                 metrics.status);
    return 1;
  }
  const obs::MetricsSnapshot snapshot = obs::parse_snapshot_json(metrics.body);
  const auto found = snapshot.histograms.find(name);
  if (found == snapshot.histograms.end() || found->second.count == 0) {
    std::fprintf(stderr, "assert-p95: histogram '%s' has no samples\n", name.c_str());
    return 1;
  }
  const double p95 = obs::snapshot_quantile(found->second, 0.95);
  const bool ok = p95 <= threshold;
  std::printf("assert-p95: %s p95 %.3f ms (%llu samples) %s threshold %.3f ms\n",
              name.c_str(), 1e3 * p95,
              static_cast<unsigned long long>(found->second.count),
              ok ? "<=" : "EXCEEDS", 1e3 * threshold);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("headtalk_client", "score WAV captures against headtalk_serve");
  args.add_flag("--socket", "Unix-domain socket the daemon listens on");
  args.add_flag("--tcp-port", "connect to 127.0.0.1:<port> instead of --socket");
  args.add_flag("--wav", "capture(s) to score (comma-separated; one utterance each)");
  args.add_flag("--parallel", "concurrent connections, each scoring every WAV", "1");
  args.add_flag("--chunk-frames", "frames per AUDIO_CHUNK", "4800");
  args.add_switch("--followup", "send utterances after the first as follow-ups");
  args.add_switch("--stream",
                  "streaming mode: the server endpoints (STREAM_START; WAVs are "
                  "continuous audio, not one utterance each)");
  args.add_flag("--admin-socket", "Unix socket of the daemon's admin plane", "");
  args.add_flag("--admin-port", "admin plane on 127.0.0.1:<port>", "0");
  args.add_flag("--admin-get",
                "fetch one admin target (e.g. /metrics, /healthz, /stats.json), "
                "print the body, exit nonzero unless HTTP 200",
                "");
  args.add_flag("--admin-post",
                "POST one admin target (e.g. /reload), print the body, exit "
                "nonzero unless HTTP 200",
                "");
  args.add_flag("--tenant",
                "AUTH as this tenant after HELLO (exit 3 if the server rejects "
                "the AUTH)",
                "");
  args.add_flag("--assert-p95",
                "scrape /metrics.json once and exit nonzero unless the named "
                "histogram's p95 is at or under the threshold, e.g. "
                "stream.decision_latency_seconds:0.005",
                "");
  args.add_switch("--watch", "poll the admin plane and render a live stage/qps view");
  args.add_flag("--interval-ms", "--watch poll interval", "1000");
  args.add_flag("--watch-count", "--watch frames before exiting (0 = forever)", "0");
  args.add_flag("--admin-merge",
                "comma-separated admin unix sockets: scrape /metrics.json from "
                "each daemon and print one obs::merge'd snapshot",
                "");

  try {
    args.parse(argc, argv);
    if (args.help_requested()) {
      std::fputs(args.usage().c_str(), stdout);
      return 0;
    }

    // Admin modes need no WAVs and no scoring connection.
    const std::string admin_target = args.get("--admin-get");
    const std::string admin_post_target = args.get("--admin-post");
    if ((!admin_target.empty() || !admin_post_target.empty()) &&
        args.get_switch("--watch")) {
      throw cli::ArgsError("--admin-get/--admin-post and --watch are mutually exclusive");
    }
    if (!admin_target.empty() || !admin_post_target.empty()) {
      const bool is_post = !admin_post_target.empty();
      const std::string& target = is_post ? admin_post_target : admin_target;
      const serve::AdminFetch fetch =
          is_post ? admin_post(args, target) : admin_fetch(args, target);
      std::fwrite(fetch.body.data(), 1, fetch.body.size(), stdout);
      if (!fetch.body.empty() && fetch.body.back() != '\n') std::fputc('\n', stdout);
      if (fetch.status != 200) {
        std::fprintf(stderr, "admin-%s %s: HTTP %d\n", is_post ? "post" : "get",
                     target.c_str(), fetch.status);
        return 1;
      }
      return 0;
    }
    if (!args.get("--assert-p95").empty()) {
      return run_assert_p95(args, args.get("--assert-p95"));
    }
    if (args.get_switch("--watch")) return run_watch(args);
    if (!args.get("--admin-merge").empty()) {
      return run_admin_merge(args.get("--admin-merge"));
    }

    const auto wavs = parse_wavs(args.get("--wav"));
    const long parallel = args.get_int("--parallel");
    const auto chunk_frames = static_cast<std::size_t>(args.get_int("--chunk-frames"));
    const bool followup_rest = args.get_switch("--followup");
    const bool stream_mode = args.get_switch("--stream");
    if (parallel < 1) throw cli::ArgsError("--parallel must be >= 1");
    if (stream_mode && followup_rest) {
      throw cli::ArgsError("--followup has no meaning with --stream");
    }

    // Decode once; every connection replays the same captures.
    std::vector<audio::MultiBuffer> captures;
    captures.reserve(wavs.size());
    for (const auto& wav : wavs) captures.push_back(audio::read_wav(wav));

    struct Outcome {
      std::vector<serve::DecisionFrame> decisions;
      std::vector<serve::StreamDecisionFrame> stream_decisions;
      serve::StreamSummary summary{};
      std::string error;
      bool auth_rejected = false;
    };
    std::vector<Outcome> outcomes(static_cast<std::size_t>(parallel));
    const std::string tenant_id = args.get("--tenant");

    auto run_connection = [&](std::size_t index) {
      Outcome& outcome = outcomes[index];
      try {
        serve::BlockingClient client = connect(args);
        serve::Hello hello;
        hello.sample_rate_hz = static_cast<std::uint32_t>(captures.front().sample_rate());
        hello.channels = static_cast<std::uint16_t>(captures.front().channel_count());
        (void)client.hello(hello);
        if (!tenant_id.empty()) {
          const auto auth = client.auth(tenant_id);
          if (!auth.accepted) {
            outcome.auth_rejected = true;
            outcome.error = "AUTH rejected (" +
                            std::string(serve::auth_reject_code_name(auth.reject.code)) +
                            "): " + auth.reject.message;
            return;
          }
          if (index == 0) {
            std::printf("authenticated as '%s' (generation %llu, quota %u/min)\n",
                        tenant_id.c_str(),
                        static_cast<unsigned long long>(auth.ok.generation),
                        auth.ok.quota_per_minute);
          }
        }
        if (stream_mode) {
          (void)client.start_stream();
          for (const auto& capture : captures) {
            client.stream_audio(capture, outcome.stream_decisions, chunk_frames);
          }
          outcome.summary = client.end_stream(outcome.stream_decisions);
          return;
        }
        for (std::size_t u = 0; u < captures.size(); ++u) {
          const bool followup = followup_rest && u > 0;
          outcome.decisions.push_back(
              client.score(captures[u], followup, chunk_frames));
        }
      } catch (const std::exception& error) {
        outcome.error = error.what();
      }
    };

    const auto wall_start = std::chrono::steady_clock::now();
    if (parallel == 1) {
      run_connection(0);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(parallel));
      for (std::size_t i = 0; i < static_cast<std::size_t>(parallel); ++i) {
        threads.emplace_back(run_connection, i);
      }
      for (auto& thread : threads) thread.join();
    }
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();

    // One detailed report for the first connection; the rest tally up.
    bool failed = false;
    if (stream_mode) {
      for (const auto& d : outcomes[0].stream_decisions) {
        std::printf(
            "[%7.3f .. %7.3f s] %s (liveness %.3f, orientation %+.3f%s%s%s, "
            "scored in %.1f ms)\n",
            d.begin_seconds, d.end_seconds,
            std::string(core::decision_name(
                            static_cast<core::Decision>(d.decision.decision)))
                .c_str(),
            d.decision.liveness_score, d.decision.orientation_score,
            d.decision.via_open_session ? ", via open session" : "",
            d.force_closed ? ", force-closed" : "",
            policy_suffix(d.decision).c_str(),
            1000.0 * d.decision.elapsed_seconds);
      }
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].error.empty()) {
          failed = true;
          std::fprintf(stderr, "connection %zu: %s\n", i, outcomes[i].error.c_str());
        }
      }
      const auto& s = outcomes[0].summary;
      std::printf(
          "stream summary: segments=%u force_closed=%u discarded=%u frames=%llu\n",
          s.segments, s.force_closed, s.discarded,
          static_cast<unsigned long long>(s.frames_streamed));
      for (const auto& outcome : outcomes) {
        if (outcome.auth_rejected) return 3;
      }
      return failed ? 1 : 0;
    }
    for (std::size_t u = 0; u < outcomes[0].decisions.size(); ++u) {
      const auto& d = outcomes[0].decisions[u];
      std::printf(
          "%s: %s (liveness %.3f, orientation %+.3f%s%s, scored in %.1f ms)\n",
          wavs[u].string().c_str(),
          std::string(core::decision_name(static_cast<core::Decision>(d.decision)))
              .c_str(),
          d.liveness_score, d.orientation_score,
          d.via_open_session ? ", via open session" : "", policy_suffix(d).c_str(),
          1000.0 * d.elapsed_seconds);
    }
    std::size_t total_decisions = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      total_decisions += outcomes[i].decisions.size();
      if (!outcomes[i].error.empty()) {
        failed = true;
        std::fprintf(stderr, "connection %zu: %s\n", i, outcomes[i].error.c_str());
      } else if (outcomes[i].decisions.size() != captures.size()) {
        failed = true;
        std::fprintf(stderr, "connection %zu: %zu/%zu decisions\n", i,
                     outcomes[i].decisions.size(), captures.size());
      }
    }
    if (parallel > 1) {
      // Aggregate throughput across the fleet: with the daemon's per-worker
      // scoring workspaces warm, decisions/s is the serving-side number to
      // compare against bench_serve_throughput's rps record.
      std::printf("%ld connections, %zu/%zu decisions, %.2f s wall, %.1f decisions/s\n",
                  parallel, total_decisions,
                  captures.size() * static_cast<std::size_t>(parallel), wall_seconds,
                  wall_seconds > 0.0 ? static_cast<double>(total_decisions) / wall_seconds
                                     : 0.0);
    }
    // AUTH rejection gets its own status so scripts can tell "not
    // enrolled" from a scoring failure.
    for (const auto& outcome : outcomes) {
      if (outcome.auth_rejected) return 3;
    }
    return failed ? 1 : 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n\n%s", error.what(), args.usage().c_str());
    return 1;
  }
}
