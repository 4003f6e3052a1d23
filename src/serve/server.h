// Serving core of the inference daemon: thread-per-connection.
//
// One acceptor thread listens on a Unix-domain socket (and, optionally, a
// TCP loopback port) and pushes accepted connections into a *bounded*
// queue; a fixed pool of worker threads pops connections and drives one
// Session each over blocking-with-timeout socket I/O. Concurrency contract:
// at most `workers` connections are in service at once, the next
// `max_pending` wait in the queue, and beyond that a fresh connection is
// answered with a BUSY frame and closed immediately — overload degrades to
// fast rejections, never to unbounded queueing or hangs. request_stop()
// (async-signal-safe: an atomic store plus one pipe write) triggers a
// graceful drain: the listeners close, the already-accepted queue is
// served to completion, in-flight utterances get their DECISIONs, then the
// workers exit.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "serve/conn_table.h"
#include "serve/session.h"

namespace headtalk::serve {

/// Point-in-time counters for tests and the daemon's exit summary.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t busy_rejections = 0;
  std::uint64_t decisions = 0;
  std::uint64_t session_errors = 0;
  std::uint64_t deadline_expirations = 0;
  std::size_t active_connections = 0;
};

struct ServerConfig {
  /// Unix-domain socket path; an existing socket file is replaced.
  std::filesystem::path socket_path;
  /// Optional TCP listener on 127.0.0.1:<port>; 0 disables it.
  int tcp_port = 0;
  /// Worker threads (0 = util::resolve_jobs auto default).
  unsigned workers = 0;
  /// Accepted connections allowed to wait for a worker; beyond this a new
  /// connection is answered BUSY and closed.
  std::size_t max_pending = 64;
  /// Per-utterance deadline: from the previous response (or accept) to the
  /// DECISION. Expiry sends ERROR deadline-exceeded and closes.
  int request_deadline_ms = 10000;
  SessionLimits session{};
};

class Server {
 public:
  /// The pipeline must stay alive for the server's lifetime; workers only
  /// use its const scoring entry point.
  Server(const core::HeadTalkPipeline& pipeline, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and spawns the acceptor + worker threads. Throws
  /// std::runtime_error when a socket cannot be bound.
  void start();

  /// Async-signal-safe stop trigger (callable from a SIGINT/SIGTERM
  /// handler): marks the server stopping and wakes the acceptor.
  void request_stop() noexcept;

  /// Blocks until request_stop() has been called (from any thread or a
  /// signal handler), then drains and joins everything. Idempotent.
  void wait();

  /// Graceful shutdown: stop accepting, serve the queued and in-flight
  /// connections to completion, join all threads. Idempotent; implies
  /// request_stop().
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return started_.load(std::memory_order_acquire) &&
           !stopped_.load(std::memory_order_acquire);
  }
  /// True once a stop/drain has been requested — the admin plane's
  /// /readyz flips to 503 on this, before in-flight utterances finish.
  [[nodiscard]] bool draining() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }
  [[nodiscard]] ServerStats stats() const;
  /// Snapshot of the live per-connection table (never blocks scoring).
  [[nodiscard]] std::vector<ConnectionInfo> connections() const;
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }

 private:
  void acceptor_loop();
  void worker_loop();
  void handle_connection(int fd, core::ScoringWorkspace& workspace);
  /// True when the fd was queued; false when the queue was full (caller
  /// sends BUSY).
  bool try_enqueue(int fd);
  [[nodiscard]] int pop_connection();  ///< -1 once stopping and drained

  const core::HeadTalkPipeline& pipeline_;
  ServerConfig config_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_ready_;
  std::deque<int> pending_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::once_flag stop_once_;

  ConnectionTable conn_table_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> busy_{0};
  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> deadlines_{0};
  std::atomic<std::size_t> active_{0};
};

}  // namespace headtalk::serve
