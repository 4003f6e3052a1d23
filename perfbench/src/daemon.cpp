// The daemon under test: spawn, set-up timing, /proc readings, admin scrape.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/export.h"
#include "perfbench.h"

namespace perfbench {
namespace {

/// How long a daemon may take to answer its first HELLO.
constexpr double kStartTimeoutSeconds = 60.0;
/// Grace period between SIGTERM and SIGKILL.
constexpr double kStopTimeoutSeconds = 10.0;

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// fd of a connected Unix socket, or -1 (errno set) when nobody listens yet.
int try_connect(const fs::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string text = path.string();
  if (text.empty() || text.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path too long: " + text);
  }
  std::memcpy(addr.sun_path, text.c_str(), text.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

}  // namespace

int connect_unix(const fs::path& path) {
  const int fd = try_connect(path);
  if (fd < 0) {
    throw std::runtime_error("cannot connect to " + path.string() + ": " +
                             std::strerror(errno));
  }
  return fd;
}

void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      throw std::runtime_error(std::string("send failed: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

serve::Frame read_frame(int fd, serve::FrameReader& reader, int timeout_ms) {
  while (true) {
    if (auto frame = reader.next()) return *std::move(frame);
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) throw std::runtime_error("timed out waiting for a server frame");
    std::uint8_t buffer[1 << 16];
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("server closed the connection");
    reader.feed(buffer, static_cast<std::size_t>(n));
  }
}

Daemon::Daemon(const Options& options, const fs::path& models_dir,
               const fs::path& store_dir, const std::string& tag)
    : socket_("serve-" + tag + ".sock"), admin_socket_("admin-" + tag + ".sock") {
  // Paths are relative to the work directory (the process's cwd): a Unix
  // socket path must fit in 108 bytes wherever the checkout lives.
  std::vector<std::string> args = {options.serve_bin.string(), "--models",
                                   models_dir.string(),        "--socket",
                                   socket_.string(),           "--admin-socket",
                                   admin_socket_.string()};
  if (!store_dir.empty()) {
    args.push_back("--store");
    args.push_back(store_dir.string());
  }
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const std::string log = "serve-" + tag + ".log";
  const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log);

  // posix_spawn, not fork: the cost of copying this process's page tables
  // (hundreds of MB of rendered inputs) must not land in setup_s.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, log_fd, STDOUT_FILENO);
  posix_spawn_file_actions_adddup2(&actions, log_fd, STDERR_FILENO);
  const double spawned = now_s();
  const int spawn_error = ::posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(log_fd);
  if (spawn_error != 0) {
    pid_ = -1;
    throw std::runtime_error(std::string("cannot start headtalk_serve: ") +
                             std::strerror(spawn_error));
  }

  // Ready = the first HELLO_OK: models loaded and the listener accepting.
  while (true) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("headtalk_serve exited during start-up; see " + log);
    }
    if (now_s() - spawned > kStartTimeoutSeconds) {
      stop();
      throw std::runtime_error("headtalk_serve did not come up; see " + log);
    }
    const int fd = try_connect(socket_);
    if (fd < 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    serve::FrameReader reader;
    try {
      send_all(fd, serve::encode_hello(serve::Hello{}));
      (void)serve::parse_hello_ok(read_frame(fd, reader, 30000));
    } catch (...) {
      ::close(fd);
      stop();
      throw;
    }
    setup_seconds_ = now_s() - spawned;
    ::close(fd);
    break;
  }
}

Daemon::~Daemon() {
  stop();
  std::error_code ignored;
  fs::remove(socket_, ignored);
  fs::remove(admin_socket_, ignored);
}

int Daemon::stop() {
  if (pid_ <= 0) return status_;
  (void)::kill(pid_, SIGTERM);
  const double deadline = now_s() + kStopTimeoutSeconds;
  int status = 0;
  while (true) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || (done < 0 && errno != EINTR)) break;
    if (now_s() > deadline) {
      (void)::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return status_;
}

double Daemon::cpu_seconds() const {
  const std::string stat = read_file("/proc/" + std::to_string(pid_) + "/stat");
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const auto close = stat.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("unreadable /proc stat");
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mb() const {
  std::istringstream status(read_file("/proc/" + std::to_string(pid_) + "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc status");
}

std::map<std::string, std::uint64_t> Daemon::scrape_counters() const {
  const int fd = connect_unix(admin_socket_);
  const std::string request = "GET /metrics.json HTTP/1.0\r\nHost: admin\r\n\r\n";
  send_all(fd, std::vector<std::uint8_t>(request.begin(), request.end()));
  std::string response;
  char buffer[1 << 14];
  while (true) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10000) <= 0) break;
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const auto body = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.0 200", 0) != 0 || body == std::string::npos) {
    throw std::runtime_error("admin /metrics.json scrape failed");
  }
  return obs::parse_snapshot_json(std::string_view(response).substr(body + 4)).counters;
}

}  // namespace perfbench
