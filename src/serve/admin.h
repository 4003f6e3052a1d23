// Admin plane of the inference daemon: live observability over HTTP.
//
// A second, tiny listener (`--admin-socket` Unix path and/or
// `--admin-port` on 127.0.0.1) answers plain HTTP/1.0 GETs from its own
// thread — scoring workers are never touched; a scrape costs the daemon
// one registry snapshot under the registry mutex and some formatting on
// the admin thread:
//
//   GET /metrics       Prometheus text exposition (obs/export.h)
//   GET /metrics.json  mergeable JSON snapshot (the cross-process
//                      aggregation wire format — obs::parse_snapshot_json
//                      reads it)
//   GET /healthz       200 "ok" while the process serves requests at all
//   GET /readyz        200 "ready" | 503 "not ready" (model loaded and
//                      not draining; flips the moment a drain starts)
//   GET /stats.json    uptime, /proc self-stats (rss, fds, cpu), the live
//                      per-connection table, and the slow-utterance
//                      exemplars (obs/exemplar.h)
//   GET /tenants.json  per-tenant model + decision-counter table (404 when
//                      the daemon runs tenant-less)
//   POST /reload       hot-reloads the tenant model store; the response
//                      reports the new generation. GET answers 405 —
//                      reloads mutate state and must not be scrapeable.
//
// The HTTP dialect is deliberately minimal: request line + headers are
// read and ignored beyond `GET <target>` / `POST <target>` (request
// bodies are ignored), every response carries Content-Length and
// Connection: close, one request per connection — enough for curl,
// Prometheus, and headtalk_client --watch, with no dependency on an HTTP
// library.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/conn_table.h"

namespace headtalk::serve {

struct AdminConfig {
  /// Unix-domain socket path; empty disables the Unix listener.
  std::filesystem::path socket_path;
  /// Optional TCP listener on 127.0.0.1:<port>; 0 disables it.
  int tcp_port = 0;
  /// Budget for reading one request and writing its response.
  int io_timeout_ms = 2000;
};

struct AdminHooks {
  /// /readyz truth; null means "always ready once started".
  std::function<bool()> ready;
  /// Rows for /stats.json's "connections" array; null means empty.
  std::function<std::vector<ConnectionInfo>()> connections;
  /// Extra JSON *members* appended into the /stats.json object, e.g.
  /// `"decisions":12,"mode":"headtalk"` (no surrounding braces). Null
  /// means none.
  std::function<std::string()> extra_stats;
  /// Full JSON body for GET /tenants.json; null answers 404 (daemon runs
  /// tenant-less).
  std::function<std::string()> tenants;
  /// POST /reload action; returns the JSON response body. Null answers
  /// 404; a thrown exception answers 500 with the message.
  std::function<std::string()> reload;
};

/// Process self-stats read from /proc (Linux); -1 fields when unavailable.
struct SelfStats {
  long long rss_bytes = -1;
  int open_fds = -1;
  double cpu_seconds = -1.0;  ///< utime + stime
};
[[nodiscard]] SelfStats read_self_stats();

/// A routed response, before HTTP framing (exposed for unit tests).
struct AdminResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class AdminServer {
 public:
  AdminServer(AdminConfig config, AdminHooks hooks = {});
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Binds the listener(s) and spawns the admin thread. Throws
  /// std::runtime_error when nothing can be bound (no socket, no port, or
  /// a bind failure).
  void start();
  /// Stops the admin thread and closes the listeners. Idempotent.
  void stop();

  /// Routes one request target to a response (no sockets involved); the
  /// serving thread and the tests share this exact function.
  [[nodiscard]] AdminResponse handle(std::string_view target,
                                     std::string_view method = "GET") const;

  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const AdminConfig& config() const noexcept { return config_; }

 private:
  void serve_loop();
  void serve_one(int fd) const;

  AdminConfig config_;
  AdminHooks hooks_;
  std::chrono::steady_clock::time_point started_at_{};
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  mutable std::atomic<std::uint64_t> requests_{0};
};

/// Minimal blocking HTTP GET against an admin endpoint — the scrape side
/// of the protocol, shared by headtalk_client --watch/--admin-get, the
/// serve bench's scraper thread, and the tests.
struct AdminFetch {
  int status = 0;
  std::string body;
};
[[nodiscard]] AdminFetch admin_get_unix(const std::filesystem::path& socket_path,
                                        std::string_view target, int timeout_ms = 5000);
[[nodiscard]] AdminFetch admin_get_tcp(int port, std::string_view target,
                                       int timeout_ms = 5000);
/// Same wire shape with a POST request line — the trigger side of
/// POST /reload (bodies are not sent; the admin plane ignores them).
[[nodiscard]] AdminFetch admin_post_unix(const std::filesystem::path& socket_path,
                                         std::string_view target, int timeout_ms = 5000);
[[nodiscard]] AdminFetch admin_post_tcp(int port, std::string_view target,
                                        int timeout_ms = 5000);

}  // namespace headtalk::serve
