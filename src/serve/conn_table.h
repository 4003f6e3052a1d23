// Live per-connection bookkeeping of the serving core.
//
// The Server feeds one of these; the admin plane's /stats.json connection
// table (and headtalk_client --watch's conns column) reads it. Each row's
// hot fields are relaxed atomics written lock-free by the worker thread
// that owns the connection; the table mutex guards only insert/erase and
// the admin snapshot.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace headtalk::serve {

/// One live connection as the admin plane's /stats.json reports it.
struct ConnectionInfo {
  std::uint64_t id = 0;        ///< accept-order id, unique per server run
  bool stream_mode = false;    ///< between STREAM_START and STREAM_END
  std::uint64_t decisions = 0;
  double age_seconds = 0.0;    ///< since accept
  double idle_seconds = 0.0;   ///< since the last bytes from the client
};

class ConnectionTable {
 public:
  /// Row in the live connection table. The owning thread writes the
  /// atomics lock-free; the table mutex only guards insert/erase and the
  /// admin snapshot.
  struct Slot {
    std::uint64_t id = 0;
    std::chrono::steady_clock::time_point accepted_at{};
    std::atomic<bool> stream_mode{false};
    std::atomic<std::uint64_t> decisions{0};
    std::atomic<std::int64_t> last_activity_us{0};  ///< steady-clock µs

    /// Stamps last_activity_us with "now" (bytes arrived from the client).
    void touch() noexcept;
  };

  /// Registers a new connection; the returned slot stays valid until
  /// erase(). Ids are unique per table for the process lifetime.
  [[nodiscard]] std::shared_ptr<Slot> insert();
  void erase(std::uint64_t id);

  [[nodiscard]] std::size_t size() const;
  /// Admin snapshot of every live row (ConnectionInfo shape).
  [[nodiscard]] std::vector<ConnectionInfo> snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<Slot>> slots_;
  std::atomic<std::uint64_t> next_id_{0};
};

}  // namespace headtalk::serve
