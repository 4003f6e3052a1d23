#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <stdexcept>

#include "core/scoring_workspace.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/listener.h"
#include "util/thread_pool.h"

namespace headtalk::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Free space each recv() is offered at least (a larger frame in progress
/// gets room for all of it: FrameReader::prepare).
constexpr std::size_t kReceiveBytes = 1 << 16;

// Registry references are resolved once; the instruments live for the
// process lifetime (see obs/metrics.h).
obs::Counter& metric_connections() {
  static obs::Counter& c = obs::Registry::global().counter("serve.connections");
  return c;
}
obs::Counter& metric_busy() {
  static obs::Counter& c = obs::Registry::global().counter("serve.busy");
  return c;
}
obs::Gauge& metric_active() {
  static obs::Gauge& g = obs::Registry::global().gauge("serve.active_connections");
  return g;
}
obs::Histogram& metric_queue_depth() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "serve.queue_depth", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  return h;
}
obs::Histogram& metric_request_seconds() {
  static obs::Histogram& h = obs::Registry::global().histogram("serve.request_seconds");
  return h;
}

}  // namespace

Server::Server(const core::HeadTalkPipeline& pipeline, ServerConfig config)
    : pipeline_(pipeline), config_(std::move(config)) {}

Server::~Server() {
  if (started_.load(std::memory_order_acquire)) stop();
}

void Server::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    throw std::runtime_error("serve: start() called twice");
  }
  if (::pipe2(stop_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    throw std::runtime_error("serve: pipe2() failed");
  }
  unix_fd_ = make_unix_listener(config_.socket_path);
  if (config_.tcp_port > 0) tcp_fd_ = make_tcp_listener(config_.tcp_port);

  const unsigned workers = util::resolve_jobs(config_.workers);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
  obs::log_info("serve.started",
                {{"socket", config_.socket_path.string()},
                 {"tcp_port", config_.tcp_port},
                 {"workers", workers},
                 {"max_pending", static_cast<std::uint64_t>(config_.max_pending)}});
}

void Server::request_stop() noexcept {
  stopping_.store(true, std::memory_order_release);
  // One byte wakes the acceptor's poll and wait(); write() is
  // async-signal-safe, and O_NONBLOCK means a full pipe is simply ignored.
  if (stop_pipe_[1] >= 0) {
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], "x", 1);
  }
}

void Server::wait() {
  if (!started_.load(std::memory_order_acquire)) return;
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{stop_pipe_[0], POLLIN, 0};
    (void)::poll(&pfd, 1, 1000);
  }
  stop();
}

void Server::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  std::call_once(stop_once_, [this] {
    request_stop();
    if (acceptor_.joinable()) acceptor_.join();
    // Wake every worker; they drain the queue, then exit on the stop flag.
    queue_ready_.notify_all();
    for (auto& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    // Connections that were queued after the last worker exited (the
    // acceptor may have raced the drain): reject them explicitly.
    std::deque<int> leftover;
    {
      std::lock_guard lock(queue_mutex_);
      leftover.swap(pending_);
    }
    const auto shutting_down =
        encode_error(ErrorCode::kShuttingDown, "server is shutting down");
    for (int fd : leftover) send_and_close(fd, shutting_down);

    close_quietly(stop_pipe_[0]);
    close_quietly(stop_pipe_[1]);
    stop_pipe_[0] = stop_pipe_[1] = -1;
    std::error_code ec;
    std::filesystem::remove(config_.socket_path, ec);
    stopped_.store(true, std::memory_order_release);
    obs::log_info("serve.stopped",
                  {{"connections", accepted_.load()},
                   {"decisions", decisions_.load()},
                   {"busy_rejections", busy_.load()}});
  });
}

std::vector<ConnectionInfo> Server::connections() const {
  return conn_table_.snapshot();
}

ServerStats Server::stats() const {
  ServerStats out;
  out.connections_accepted = accepted_.load(std::memory_order_relaxed);
  out.busy_rejections = busy_.load(std::memory_order_relaxed);
  out.decisions = decisions_.load(std::memory_order_relaxed);
  out.session_errors = errors_.load(std::memory_order_relaxed);
  out.deadline_expirations = deadlines_.load(std::memory_order_relaxed);
  out.active_connections = active_.load(std::memory_order_relaxed);
  return out;
}

void Server::acceptor_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[3];
    nfds_t count = 0;
    fds[count++] = {stop_pipe_[0], POLLIN, 0};
    fds[count++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[count++] = {tcp_fd_, POLLIN, 0};
    const int ready = ::poll(fds, count, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) break;  // stop requested
    for (nfds_t i = 1; i < count; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int client = ::accept4(fds[i].fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (client < 0) continue;
      if (stopping_.load(std::memory_order_acquire)) {
        send_and_close(client,
                       encode_error(ErrorCode::kShuttingDown, "server is draining"));
        continue;
      }
      if (try_enqueue(client)) {
        accepted_.fetch_add(1, std::memory_order_relaxed);
        metric_connections().increment();
      } else {
        busy_.fetch_add(1, std::memory_order_relaxed);
        metric_busy().increment();
        send_and_close(client, encode_busy());
      }
    }
  }
  // Stop accepting: new connects now fail instead of queueing invisibly.
  close_quietly(unix_fd_);
  close_quietly(tcp_fd_);
  unix_fd_ = tcp_fd_ = -1;
}

bool Server::try_enqueue(int fd) {
  std::size_t depth = 0;
  {
    std::lock_guard lock(queue_mutex_);
    if (pending_.size() >= config_.max_pending) return false;
    pending_.push_back(fd);
    depth = pending_.size();
  }
  metric_queue_depth().observe(static_cast<double>(depth));
  queue_ready_.notify_one();
  return true;
}

int Server::pop_connection() {
  std::unique_lock lock(queue_mutex_);
  queue_ready_.wait(lock, [this] {
    return !pending_.empty() || stopping_.load(std::memory_order_acquire);
  });
  if (pending_.empty()) return -1;  // stopping and fully drained
  const int fd = pending_.front();
  pending_.pop_front();
  return fd;
}

void Server::worker_loop() {
  // One workspace per worker thread, reused across every connection this
  // worker handles: after the first utterance the scoring scratch and the
  // cached FFT plans are warm for the rest of the worker's lifetime.
  core::ScoringWorkspace workspace;
  while (true) {
    const int fd = pop_connection();
    if (fd < 0) return;
    active_.fetch_add(1, std::memory_order_relaxed);
    metric_active().set(static_cast<double>(active_.load(std::memory_order_relaxed)));
    handle_connection(fd, workspace);
    active_.fetch_sub(1, std::memory_order_relaxed);
    metric_active().set(static_cast<double>(active_.load(std::memory_order_relaxed)));
  }
}

void Server::handle_connection(int fd, core::ScoringWorkspace& workspace) {
  Session session(pipeline_, config_.session);
  session.set_workspace(&workspace);
  const auto deadline_budget = std::chrono::milliseconds(config_.request_deadline_ms);
  const Clock::time_point accepted_at = Clock::now();
  Clock::time_point deadline = accepted_at + deadline_budget;
  // serve.request_seconds runs from the first bytes of a whole utterance
  // (bytes received while the session was idle) to its DECISION, so client
  // think time between utterances is not counted as serving latency.
  Clock::time_point request_start = accepted_at;

  // Register this connection's row in the shared admin table. The worker
  // updates the row's atomics lock-free on every read; the table mutex is
  // touched only here and at teardown.
  auto slot = conn_table_.insert();
  slot->accepted_at = accepted_at;
  slot->touch();
  struct SlotEraser {
    ConnectionTable* table;
    std::uint64_t id;
    ~SlotEraser() { table->erase(id); }
  } eraser{&conn_table_, slot->id};

  // Watch the stop pipe alongside the client so a drain is not held hostage
  // by an idle connection waiting out its deadline. Once a drain is seen
  // with an utterance in flight we stop watching (the pipe stays readable)
  // and finish that utterance, bounded by the deadline.
  bool watch_stop = true;

  while (true) {
    const auto now = Clock::now();
    if (now >= deadline) {
      deadlines_.fetch_add(1, std::memory_order_relaxed);
      const auto frame = encode_error(ErrorCode::kDeadlineExceeded,
                                      "no complete request within the deadline");
      (void)send_all(fd, frame.data(), frame.size());
      break;
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    pollfd pfds[2] = {{fd, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const nfds_t pfd_count = watch_stop ? 2 : 1;
    const int ready = ::poll(pfds, pfd_count, static_cast<int>(remaining.count()) + 1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;  // deadline handled at the top of the loop
    if (pfd_count == 2 && pfds[1].revents != 0 && (pfds[0].revents & POLLIN) == 0) {
      // Drain requested and the client has nothing pending right now.
      if (session.idle()) {
        const auto frame =
            encode_error(ErrorCode::kShuttingDown, "server is draining");
        (void)send_all(fd, frame.data(), frame.size());
        break;
      }
      watch_stop = false;
      continue;
    }
    if ((pfds[0].revents & POLLIN) == 0) continue;

    // Received straight into the session's frame reader, where the frames
    // are parsed: no received byte is copied first.
    const std::span<std::uint8_t> space = session.receive_buffer(kReceiveBytes);
    const ssize_t n = ::recv(fd, space.data(), space.size(), 0);
    if (n == 0) break;  // client closed
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }

    slot->touch();
    if (session.idle()) request_start = Clock::now();

    const bool was_streaming = session.stream_mode();
    const std::size_t decisions_before = session.decisions_sent();
    const bool alive = session.on_received(static_cast<std::size_t>(n));
    const auto output = session.take_output();
    if (!output.empty() && !send_all(fd, output.data(), output.size())) break;
    slot->stream_mode.store(session.stream_mode(), std::memory_order_relaxed);
    slot->decisions.store(session.decisions_sent(), std::memory_order_relaxed);

    if (session.stream_mode()) {
      // Auto-endpoint streaming: the server owns segmentation, so there is
      // no "complete request" for the deadline to bound — a quiet room
      // produces no decisions for minutes. Received audio proves the client
      // is alive; the deadline degrades to a max inter-chunk silence.
      deadline = Clock::now() + deadline_budget;
    }

    const std::size_t new_decisions = session.decisions_sent() - decisions_before;
    if (new_decisions > 0) {
      decisions_.fetch_add(new_decisions, std::memory_order_relaxed);
      // Stream segments are timed by stream.decision_latency_seconds; their
      // "request" spans the speech itself, not serving work.
      if (!was_streaming && !session.stream_mode()) {
        metric_request_seconds().observe(
            std::chrono::duration<double>(Clock::now() - request_start).count());
      }
      // A finished utterance resets the per-utterance deadline.
      deadline = Clock::now() + deadline_budget;
      // During a drain, finish the utterance that is in flight but do not
      // wait for the client's next one.
      if (stopping_.load(std::memory_order_acquire)) break;
    }
    if (!alive) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  close_quietly(fd);
}

}  // namespace headtalk::serve
