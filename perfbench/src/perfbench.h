// Shared declarations of the HeadTalk serving benchmark.
//
// One run = one workload at one seed:
//   inputs.cpp  renders the seeded inputs (4-channel 48 kHz D2 captures and
//               streaming scenes), trains the two models the daemon loads,
//               and enrolls a small tenant store;
//   daemon.cpp  spawns the shipped headtalk_serve, times its set-up, reads
//               its CPU/RSS from /proc and scrapes its /metrics.json;
//   load.cpp    drives it from one client thread over the Unix socket;
//   gate.cpp    checks every served verdict against in-process scoring;
//   traced.cpp  replays the same inputs through each layer's public calls
//               with spans on (the --trace 1 run).
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audio/sample_buffer.h"
#include "core/pipeline.h"
#include "serve/protocol.h"
#include "sim/spec.h"
#include "sim/stream_scene.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace headtalk;

// ---- clock ------------------------------------------------------------------

/// Seconds on the steady clock (arbitrary epoch).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted values; 0 if empty.
double quantile(std::vector<double> values, double q);

// ---- workloads ----------------------------------------------------------------

enum class Workload { kUtteranceOpen, kUtteranceClosed, kStreamPaced };

struct Options {
  Workload workload = Workload::kUtteranceOpen;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path serve_bin;  ///< the headtalk_serve binary under test
  fs::path work_dir;   ///< this run's models, store, sockets and logs (the cwd)
  fs::path trace_dir;  ///< where the traced run writes its span file
  std::string commit;  ///< git sha or source digest, for the stamp
  /// Client connections to the daemon: min(nproc, 8).
  std::size_t connections = 1;
};

/// Frames per AUDIO_CHUNK when a whole utterance is sent.
inline constexpr std::size_t kUtteranceChunkFrames = 4800;
/// Untimed requests each connection sends before the timed window.
inline constexpr std::size_t kWarmupPerConnection = 4;
/// Open-loop arrivals per second per connection (utterance_open).
inline constexpr double kOpenRatePerConnection = 12.5;
/// Every kFollowupEvery-th request of a closed-loop connection is a
/// follow-up command (utterance_closed).
inline constexpr std::size_t kFollowupEvery = 4;
/// Streaming pace, as a multiple of real time (stream_paced).
inline constexpr double kStreamPace = 20.0;

// ---- inputs -------------------------------------------------------------------

/// One whole utterance as it travels: the capture (samples rounded through
/// float32, exactly what the daemon reconstructs from the wire) and its
/// pre-encoded AUDIO_CHUNK frames.
struct Utterance {
  audio::MultiBuffer capture;
  std::vector<std::uint8_t> chunk_bytes;
  [[nodiscard]] double seconds() const {
    return static_cast<double>(capture.frames()) / capture.sample_rate();
  }
};

/// One continuous streaming scene (float32-rounded) with its truth.
struct Scene {
  audio::MultiBuffer audio;
  std::vector<float> interleaved;
  std::vector<sim::StreamUtterance> truth;
};

struct Inputs {
  std::vector<Utterance> utterances;  ///< the request pool
  std::vector<Scene> scenes;          ///< one per streaming connection
  std::vector<std::string> tenants;   ///< ids in the temp store
  fs::path models_dir;
  fs::path store_dir;
};

/// Renders everything a run needs from `seed` (feature cache disabled),
/// writes the trained models and the tenant store under options.work_dir.
Inputs make_inputs(const Options& options);

/// The daemon's pipeline, loaded from the same model files it loads.
core::HeadTalkPipeline load_pipeline(const fs::path& models_dir);

/// True when the time spans [b0, e0) and [b1, e1) intersect.
inline bool overlaps(double b0, double e0, double b1, double e1) { return b0 < e1 && e0 > b1; }

/// Captures of the stream scenes' truth spans (pre-segmented utterances).
audio::MultiBuffer truth_span(const Scene& scene, const sim::StreamUtterance& truth);

// ---- daemon -------------------------------------------------------------------

/// One headtalk_serve child. The destructor stops it (SIGTERM, then SIGKILL
/// after a grace period) and reaps it.
class Daemon {
 public:
  /// Spawns the daemon with the default engine and flags, plus --models,
  /// --socket, --admin-socket and (if non-empty) --store. Returns once the
  /// first HELLO_OK is answered; setup_seconds() is spawn → HELLO_OK.
  Daemon(const Options& options, const fs::path& models_dir, const fs::path& store_dir,
         const std::string& tag);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] double setup_seconds() const noexcept { return setup_seconds_; }
  [[nodiscard]] const fs::path& socket_path() const noexcept { return socket_; }

  /// utime + stime of the whole process, in seconds.
  [[nodiscard]] double cpu_seconds() const;
  /// VmHWM in MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// GET /metrics.json on the admin plane → counter name → value.
  [[nodiscard]] std::map<std::string, std::uint64_t> scrape_counters() const;

  /// SIGTERM + reap; returns the exit status (idempotent).
  int stop();

 private:
  pid_t pid_ = -1;
  fs::path socket_;
  fs::path admin_socket_;
  double setup_seconds_ = 0.0;
  int status_ = 0;
};

// ---- blocking socket helpers (handshakes) -----------------------------------

/// Connected Unix-socket fd (throws on failure).
int connect_unix(const fs::path& path);
void send_all(int fd, const std::vector<std::uint8_t>& bytes);
/// Blocks (up to timeout_ms) for one frame, feeding `reader` from `fd`.
serve::Frame read_frame(int fd, serve::FrameReader& reader, int timeout_ms);

// ---- load -----------------------------------------------------------------------

/// One whole-utterance request as the client saw it.
struct Request {
  std::size_t connection = 0;
  std::size_t utterance = 0;  ///< index into Inputs::utterances
  bool followup = false;
  bool timed = false;         ///< false for warm-up requests
  double scheduled = 0.0;     ///< open loop: when it was due; else = first_byte
  double first_byte = 0.0;    ///< first AUDIO_CHUNK byte written
  double endpoint_sent = 0.0; ///< last END_OF_UTTERANCE byte written
  double received = 0.0;      ///< DECISION (or ERROR) parsed
  bool answered = false;
  bool error = false;
  serve::DecisionFrame decision;
};

/// One STREAM_DECISION as the client saw it.
struct StreamEvent {
  std::size_t connection = 0;
  double received = 0.0;
  bool timed = false;            ///< closed by a chunk sent in the window
  double utterance_latency = -1.0;  ///< scheduled first chunk → decision
  double endpoint_latency = -1.0;   ///< close-frame chunk sent → decision
  serve::StreamDecisionFrame frame;
};

/// Per streaming connection: what was sent, so the gate can replay it.
struct StreamConnection {
  std::size_t scene = 0;
  std::size_t chunks_sent = 0;  ///< consecutive chunks over the looped scene
  std::uint32_t vad_frame_length = 0;
  bool summary_received = false;
};

struct LoadResult {
  std::vector<Request> requests;
  std::vector<StreamEvent> events;
  std::vector<StreamConnection> streams;
  double connect_seconds = 0.0;  ///< connect + HELLO (+ AUTH) of every connection
  double window_start = 0.0;
  double window_end = 0.0;       ///< last timed decision received
  double cpu_start = 0.0, cpu_end = 0.0;  ///< daemon CPU seconds at the window edges
  double audio_seconds = 0.0;    ///< audio sent inside the window
  std::vector<double> lag_seconds;  ///< driver lateness per timed send
  std::size_t errors = 0;        ///< ERROR/BUSY frames and dropped connections
  std::size_t abandoned = 0;     ///< timed requests never answered
};

LoadResult run_load(const Options& options, const Inputs& inputs, Daemon& daemon);

// ---- correctness gate -----------------------------------------------------------

struct GateResult {
  std::size_t attempted = 0;
  std::size_t mismatches = 0;
  std::size_t missed_utterances = 0;  ///< stream: truth utterances with no segment
  double segmentation_recall = 1.0;
  bool counters_match = true;
  std::vector<std::string> notes;  ///< first few mismatch descriptions
};

GateResult check_load(const Options& options, const Inputs& inputs,
                      const core::HeadTalkPipeline& pipeline, const LoadResult& load,
                      const std::map<std::string, std::uint64_t>& daemon_counters);

// ---- traced replay ----------------------------------------------------------------

/// Per-layer metrics (name → value, unit) from the in-process traced replay.
struct LayerMetric {
  double value = 0.0;
  std::string unit;
};
using LayerMetrics = std::map<std::string, LayerMetric>;

/// `disagreements` counts replayed Session verdicts that differ from
/// score_capture on the same request (a correctness failure).
LayerMetrics run_traced(const Options& options, const Inputs& inputs,
                        const core::HeadTalkPipeline& pipeline, const LoadResult& load,
                        std::size_t& disagreements);

}  // namespace perfbench
