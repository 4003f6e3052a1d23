// Socket plumbing shared by the serving core and the admin plane: listener
// construction (Unix / loopback-TCP), whole-buffer sends, and the one-shot
// reject path used for BUSY / shutting-down frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <vector>

namespace headtalk::serve {

/// Binds + listens on a Unix-domain socket (an existing socket file is
/// replaced). Throws std::runtime_error on failure.
[[nodiscard]] int make_unix_listener(const std::filesystem::path& path);

/// Binds + listens on 127.0.0.1:<port>. Loopback only: the daemon carries
/// raw room audio; remote exposure is a deliberate deployment decision
/// (front it with a real proxy), not a flag. Throws on failure.
[[nodiscard]] int make_tcp_listener(int port);

/// Sends the whole buffer (blocking fd), retrying short writes and EINTR;
/// false on a dead peer.
bool send_all(int fd, const std::uint8_t* data, std::size_t size);

/// Best-effort single-shot frame for connections rejected before a worker
/// ever owns them (BUSY / shutting-down): one non-blocking send, then
/// close. Always closes `fd`.
void send_and_close(int fd, const std::vector<std::uint8_t>& frame);

void close_quietly(int fd) noexcept;

}  // namespace headtalk::serve
