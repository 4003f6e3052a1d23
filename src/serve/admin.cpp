#include "serve/admin.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sstream>
#include <stdexcept>

#include "obs/exemplar.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/listener.h"

namespace headtalk::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// send_all with a write deadline: the admin plane serves one client at a
/// time on its own thread, so a peer that stops reading must not stall it.
bool send_all_within(int fd, const char* data, std::size_t size, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t sent = 0;
  while (sent < size) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (remaining.count() <= 0) return false;
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (ready == 0) return false;
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

const char* status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

}  // namespace

SelfStats read_self_stats() {
  SelfStats out;
  // Resident set: /proc/self/statm field 2, in pages.
  if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
    long long pages_total = 0, pages_resident = 0;
    if (std::fscanf(statm, "%lld %lld", &pages_total, &pages_resident) == 2) {
      out.rss_bytes = pages_resident * ::sysconf(_SC_PAGESIZE);
    }
    std::fclose(statm);
  }
  // Open descriptors: entries of /proc/self/fd minus ".", "..", and the
  // DIR stream's own descriptor.
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    int count = 0;
    while (::readdir(dir) != nullptr) ++count;
    ::closedir(dir);
    out.open_fds = count > 3 ? count - 3 : 0;
  }
  // CPU: utime (14) + stime (15) of /proc/self/stat, in clock ticks. The
  // comm field may contain spaces but is parenthesized — scan past ')'.
  if (std::FILE* stat = std::fopen("/proc/self/stat", "r")) {
    char buffer[1024];
    if (std::fgets(buffer, sizeof buffer, stat) != nullptr) {
      if (const char* close_paren = std::strrchr(buffer, ')')) {
        unsigned long long utime = 0, stime = 0;
        // 11 fields between ')' and utime (state, ppid, ..., majflt_child).
        if (std::sscanf(close_paren + 1,
                        " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                        &utime, &stime) == 2) {
          out.cpu_seconds = static_cast<double>(utime + stime) /
                            static_cast<double>(::sysconf(_SC_CLK_TCK));
        }
      }
    }
    std::fclose(stat);
  }
  return out;
}

AdminServer::AdminServer(AdminConfig config, AdminHooks hooks)
    : config_(std::move(config)), hooks_(std::move(hooks)) {}

AdminServer::~AdminServer() { stop(); }

void AdminServer::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    throw std::runtime_error("admin: start() called twice");
  }
  if (config_.socket_path.empty() && config_.tcp_port <= 0) {
    throw std::runtime_error("admin: no socket path and no port to listen on");
  }
  if (::pipe2(stop_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    throw std::runtime_error("admin: pipe2() failed");
  }
  if (!config_.socket_path.empty()) unix_fd_ = make_unix_listener(config_.socket_path);
  if (config_.tcp_port > 0) tcp_fd_ = make_tcp_listener(config_.tcp_port);
  started_at_ = Clock::now();
  thread_ = std::thread([this] { serve_loop(); });
  obs::log_info("admin.started", {{"socket", config_.socket_path.string()},
                                  {"tcp_port", config_.tcp_port}});
}

void AdminServer::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (!stopping_.exchange(true, std::memory_order_acq_rel)) {
    if (stop_pipe_[1] >= 0) {
      [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], "x", 1);
    }
    if (thread_.joinable()) thread_.join();
    close_quietly(unix_fd_);
    close_quietly(tcp_fd_);
    unix_fd_ = tcp_fd_ = -1;
    close_quietly(stop_pipe_[0]);
    close_quietly(stop_pipe_[1]);
    stop_pipe_[0] = stop_pipe_[1] = -1;
    if (!config_.socket_path.empty()) {
      std::error_code ec;
      std::filesystem::remove(config_.socket_path, ec);
    }
    obs::log_info("admin.stopped", {{"requests", requests_.load()}});
  }
}

AdminResponse AdminServer::handle(std::string_view target,
                                  std::string_view method) const {
  requests_.fetch_add(1, std::memory_order_relaxed);
  // Strip any query string: /metrics?x=y scrapes like /metrics.
  if (const auto query = target.find('?'); query != std::string_view::npos) {
    target = target.substr(0, query);
  }
  AdminResponse response;
  if (target == "/reload") {
    // The only mutating endpoint: POST-only so that scrapers pointed at
    // the wrong path cannot trigger model reloads.
    if (method != "POST") {
      response.status = 405;
      response.body = "/reload requires POST\n";
      return response;
    }
    if (!hooks_.reload) {
      response.status = 404;
      response.body = "reload not available (tenant store disabled)\n";
      return response;
    }
    try {
      response.content_type = "application/json";
      response.body = hooks_.reload();
    } catch (const std::exception& error) {
      response = {500, "text/plain; charset=utf-8",
                  std::string("reload failed: ") + error.what() + "\n"};
    }
    return response;
  }
  if (method != "GET") {
    response.status = 405;
    response.body = "method not allowed\n";
    return response;
  }
  if (target == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::to_prometheus(obs::snapshot());
    return response;
  }
  if (target == "/metrics.json") {
    response.content_type = "application/json";
    response.body = obs::to_snapshot_json(obs::snapshot());
    return response;
  }
  if (target == "/healthz") {
    response.body = "ok\n";
    return response;
  }
  if (target == "/readyz") {
    const bool ready = !hooks_.ready || hooks_.ready();
    response.status = ready ? 200 : 503;
    response.body = ready ? "ready\n" : "not ready\n";
    return response;
  }
  if (target == "/tenants.json") {
    if (!hooks_.tenants) {
      response.status = 404;
      response.body = "tenants not available (tenant store disabled)\n";
      return response;
    }
    response.content_type = "application/json";
    response.body = hooks_.tenants();
    return response;
  }
  if (target == "/stats.json") {
    response.content_type = "application/json";
    std::ostringstream body;
    const SelfStats self = read_self_stats();
    body << "{\"uptime_seconds\":"
         << std::chrono::duration<double>(Clock::now() - started_at_).count()
         << ",\"pid\":" << ::getpid() << ",\"rss_bytes\":" << self.rss_bytes
         << ",\"open_fds\":" << self.open_fds << ",\"cpu_seconds\":" << self.cpu_seconds
         << ",\"admin_requests\":" << requests_.load(std::memory_order_relaxed);
    if (hooks_.extra_stats) {
      const std::string extra = hooks_.extra_stats();
      if (!extra.empty()) body << ',' << extra;
    }
    body << ",\"connections\":[";
    if (hooks_.connections) {
      const auto connections = hooks_.connections();
      for (std::size_t i = 0; i < connections.size(); ++i) {
        const ConnectionInfo& c = connections[i];
        body << (i == 0 ? "" : ",") << "{\"id\":" << c.id << ",\"state\":\""
             << (c.stream_mode ? "streaming" : "unary")
             << "\",\"decisions\":" << c.decisions
             << ",\"age_seconds\":" << c.age_seconds
             << ",\"idle_seconds\":" << c.idle_seconds << '}';
      }
    }
    body << "],\"slow_utterances\":";
    obs::SlowExemplarRing::global().write_json(body);
    body << '}';
    response.body = body.str();
    return response;
  }
  response.status = 404;
  response.body = "not found\n";
  return response;
}

void AdminServer::serve_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[3];
    nfds_t count = 0;
    fds[count++] = {stop_pipe_[0], POLLIN, 0};
    if (unix_fd_ >= 0) fds[count++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[count++] = {tcp_fd_, POLLIN, 0};
    const int ready = ::poll(fds, count, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) break;
    for (nfds_t i = 1; i < count; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int client = ::accept4(fds[i].fd, nullptr, nullptr,
                                   SOCK_CLOEXEC | SOCK_NONBLOCK);
      if (client < 0) continue;
      serve_one(client);
    }
  }
}

void AdminServer::serve_one(int fd) const {
  // Read until the end of the request head (or the client closes after a
  // bare request line — curl-less scripts may just printf the line).
  std::string request;
  const auto deadline = Clock::now() + std::chrono::milliseconds(config_.io_timeout_ms);
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.find('\n') == std::string::npos) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (remaining.count() <= 0 || request.size() > 8192) break;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready <= 0) {
      if (ready < 0 && errno == EINTR) continue;
      break;
    }
    char buffer[2048];
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) {
      // The accepted fd is non-blocking: a spurious wakeup surfaces as
      // EAGAIN here and just means "poll again".
      if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
        continue;
      }
      break;
    }
    request.append(buffer, static_cast<std::size_t>(n));
  }

  AdminResponse response;
  const auto line_end = request.find_first_of("\r\n");
  const std::string line = request.substr(0, line_end);
  std::string_view method;
  if (line.rfind("GET ", 0) == 0) {
    method = "GET";
  } else if (line.rfind("POST ", 0) == 0) {
    method = "POST";
  }
  if (!method.empty()) {
    const std::size_t target_begin = method.size() + 1;
    const auto target_end = line.find(' ', target_begin);
    const std::string target =
        line.substr(target_begin, target_end == std::string::npos
                                      ? std::string::npos
                                      : target_end - target_begin);
    response = handle(target, method);
  } else if (line.empty()) {
    response = {400, "text/plain; charset=utf-8", "bad request\n"};
  } else {
    response = {405, "text/plain; charset=utf-8", "only GET and POST are supported\n"};
  }

  std::ostringstream head;
  head << "HTTP/1.0 " << response.status << ' ' << status_text(response.status)
       << "\r\nContent-Type: " << response.content_type
       << "\r\nContent-Length: " << response.body.size()
       << "\r\nConnection: close\r\n\r\n";
  const std::string head_text = head.str();
  if (send_all_within(fd, head_text.data(), head_text.size(), config_.io_timeout_ms)) {
    (void)send_all_within(fd, response.body.data(), response.body.size(),
                          config_.io_timeout_ms);
  }
  close_quietly(fd);
}

namespace {

AdminFetch admin_fetch_fd(int fd, std::string_view method, std::string_view target,
                          int timeout_ms) {
  AdminFetch out;
  const std::string request = std::string(method) + ' ' + std::string(target) +
                              " HTTP/1.0\r\nHost: admin\r\nContent-Length: 0\r\n\r\n";
  if (!send_all_within(fd, request.data(), request.size(), timeout_ms)) {
    close_quietly(fd);
    throw std::runtime_error("admin client: send failed");
  }
  std::string reply;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (remaining.count() <= 0) {
      close_quietly(fd);
      throw std::runtime_error("admin client: timed out waiting for the response");
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      close_quietly(fd);
      throw std::runtime_error("admin client: poll failed");
    }
    if (ready == 0) continue;
    char buffer[4096];
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      close_quietly(fd);
      throw std::runtime_error("admin client: recv failed");
    }
    if (n == 0) break;  // server closed: response complete
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  close_quietly(fd);

  if (reply.rfind("HTTP/", 0) != 0) {
    throw std::runtime_error("admin client: not an HTTP response");
  }
  const auto space = reply.find(' ');
  if (space != std::string::npos) {
    out.status = std::atoi(reply.c_str() + space + 1);
  }
  const auto body = reply.find("\r\n\r\n");
  out.body = body == std::string::npos ? "" : reply.substr(body + 4);
  return out;
}

int connect_with_timeout(int fd, const sockaddr* addr, socklen_t len, int timeout_ms) {
  if (::connect(fd, addr, len) == 0) return 0;
  if (errno != EINPROGRESS && errno != EAGAIN) return -1;
  pollfd pfd{fd, POLLOUT, 0};
  if (::poll(&pfd, 1, timeout_ms) != 1) return -1;
  int error = 0;
  socklen_t error_len = sizeof error;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &error_len) != 0) return -1;
  return error == 0 ? 0 : -1;
}

int connect_admin_unix(const std::filesystem::path& socket_path, int timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string text = socket_path.string();
  if (text.empty() || text.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("admin client: bad socket path '" + text + "'");
  }
  std::memcpy(addr.sun_path, text.c_str(), text.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("admin client: socket() failed");
  if (connect_with_timeout(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr,
                           timeout_ms) != 0) {
    close_quietly(fd);
    throw std::runtime_error("admin client: cannot connect to " + text);
  }
  return fd;
}

int connect_admin_tcp(int port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("admin client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect_with_timeout(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr,
                           timeout_ms) != 0) {
    close_quietly(fd);
    throw std::runtime_error("admin client: cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
  return fd;
}

}  // namespace

AdminFetch admin_get_unix(const std::filesystem::path& socket_path,
                          std::string_view target, int timeout_ms) {
  return admin_fetch_fd(connect_admin_unix(socket_path, timeout_ms), "GET", target,
                        timeout_ms);
}

AdminFetch admin_get_tcp(int port, std::string_view target, int timeout_ms) {
  return admin_fetch_fd(connect_admin_tcp(port, timeout_ms), "GET", target, timeout_ms);
}

AdminFetch admin_post_unix(const std::filesystem::path& socket_path,
                           std::string_view target, int timeout_ms) {
  return admin_fetch_fd(connect_admin_unix(socket_path, timeout_ms), "POST", target,
                        timeout_ms);
}

AdminFetch admin_post_tcp(int port, std::string_view target, int timeout_ms) {
  return admin_fetch_fd(connect_admin_tcp(port, timeout_ms), "POST", target, timeout_ms);
}

}  // namespace headtalk::serve
