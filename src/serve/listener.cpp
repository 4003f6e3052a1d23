#include "serve/listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace headtalk::serve {

void close_quietly(int fd) noexcept {
  if (fd >= 0) ::close(fd);
}

bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void send_and_close(int fd, const std::vector<std::uint8_t>& frame) {
  (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  close_quietly(fd);
}

int make_unix_listener(const std::filesystem::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string text = path.string();
  if (text.empty() || text.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: bad unix socket path '" + text + "'");
  }
  std::memcpy(addr.sun_path, text.c_str(), text.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("serve: socket() failed");
  std::error_code ec;
  std::filesystem::remove(path, ec);  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    close_quietly(fd);
    throw std::runtime_error("serve: cannot bind " + text + ": " +
                             std::strerror(err));
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    close_quietly(fd);
    throw std::runtime_error("serve: listen() failed on " + text);
  }
  return fd;
}

int make_tcp_listener(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    close_quietly(fd);
    throw std::runtime_error("serve: cannot bind 127.0.0.1:" + std::to_string(port) +
                             ": " + std::strerror(err));
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    close_quietly(fd);
    throw std::runtime_error("serve: listen() failed on port " + std::to_string(port));
  }
  return fd;
}

}  // namespace headtalk::serve
