// The load: one client thread multiplexing up to min(nproc, 8) Unix-socket
// connections to the daemon with non-blocking I/O.
//
//   utterance_open    whole utterances at a fixed arrival rate, tenant-less;
//                     latency runs from when a request was due.
//   utterance_closed  each connection AUTHs to a tenant and sends its next
//                     utterance when the previous DECISION lands; every
//                     kFollowupEvery-th request is a follow-up command.
//   stream_paced      STREAM_START, then each connection's scene in
//                     one-VAD-frame chunks paced at kStreamPace x real time.
//
// Every connection completes HELLO (and AUTH) and kWarmupPerConnection
// untimed requests before the timed window opens, so neither the
// connection ramp nor cold caches land inside it.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>

#include "perfbench.h"
#include "stream/endpointer.h"

namespace perfbench {
namespace {

/// Time the daemon gets to answer every outstanding request after the window.
constexpr double kDrainTimeoutSeconds = 60.0;

struct OutSegment {
  enum class Mark { kNone, kRequest, kEndpoint, kChunk };
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  std::size_t offset = 0;
  Mark mark = Mark::kNone;
  std::size_t id = 0;  ///< request index (kRequest/kEndpoint) or chunk index
};

struct Conn {
  int fd = -1;
  serve::FrameReader reader;
  std::deque<OutSegment> out;
  std::deque<std::size_t> inflight;  ///< request indices awaiting a DECISION
  bool dead = false;
  std::size_t requested = 0;  ///< requests sent on this connection
  std::mt19937_64 rng;
  /// Pool indices still to send this round: each connection deals the whole
  /// pool in a seeded order before it repeats one, so every window sends
  /// the same mix.
  std::vector<std::size_t> deck;
  // Streaming state.
  std::vector<double> chunk_due;
  std::vector<double> chunk_sent;
  std::size_t next_chunk = 0;
  bool stopping = false;
  bool stream_end_sent = false;
  bool summary_received = false;
};

class Driver {
 public:
  Driver(const Options& options, const Inputs& inputs, Daemon& daemon)
      : options_(options),
        inputs_(inputs),
        daemon_(daemon),
        eou_plain_(serve::encode_end_of_utterance(false)),
        eou_followup_(serve::encode_end_of_utterance(true)) {}

  ~Driver() {
    for (auto& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
  }

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  LoadResult run() {
    connect_all();
    warm_up();
    switch (options_.workload) {
      case Workload::kUtteranceOpen:
        run_open();
        break;
      case Workload::kUtteranceClosed:
        run_closed();
        break;
      case Workload::kStreamPaced:
        run_stream();
        break;
    }
    return std::move(result_);
  }

 private:
  // ---- connections ---------------------------------------------------------

  void connect_all() {
    const double start = now_s();
    conns_.resize(options_.connections);
    const audio::MultiBuffer& sample = inputs_.utterances.front().capture;
    serve::Hello hello;
    hello.sample_rate_hz = static_cast<std::uint32_t>(sample.sample_rate());
    hello.channels = static_cast<std::uint16_t>(sample.channel_count());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = conns_[i];
      conn.rng.seed(options_.seed * 7919 + i);
      conn.fd = connect_unix(daemon_.socket_path());
      send_all(conn.fd, serve::encode_hello(hello));
      (void)serve::parse_hello_ok(read_frame(conn.fd, conn.reader, 30000));
      if (options_.workload == Workload::kUtteranceClosed) {
        const std::string& tenant = inputs_.tenants[i % inputs_.tenants.size()];
        send_all(conn.fd, serve::encode_auth(tenant));
        const serve::Frame reply = read_frame(conn.fd, conn.reader, 30000);
        if (reply.type != serve::FrameType::kAuthOk) {
          throw std::runtime_error("AUTH as " + tenant + " was not accepted");
        }
      }
      const int flags = ::fcntl(conn.fd, F_GETFL, 0);
      ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK);
    }
    result_.connect_seconds = now_s() - start;
  }

  // ---- requests --------------------------------------------------------------

  std::size_t send_request(std::size_t c, bool followup, bool timed, double scheduled) {
    Conn& conn = conns_[c];
    Request request;
    request.connection = c;
    if (conn.deck.empty()) {
      conn.deck.resize(inputs_.utterances.size());
      std::iota(conn.deck.begin(), conn.deck.end(), std::size_t{0});
      std::shuffle(conn.deck.begin(), conn.deck.end(), conn.rng);
    }
    request.utterance = conn.deck.back();
    conn.deck.pop_back();
    request.followup = followup;
    request.timed = timed;
    request.scheduled = scheduled;
    const std::size_t id = result_.requests.size();
    result_.requests.push_back(request);
    const Utterance& u = inputs_.utterances[request.utterance];
    conn.out.push_back({u.chunk_bytes.data(), u.chunk_bytes.size(), 0,
                        OutSegment::Mark::kRequest, id});
    const auto& eou = followup ? eou_followup_ : eou_plain_;
    conn.out.push_back({eou.data(), eou.size(), 0, OutSegment::Mark::kEndpoint, id});
    conn.inflight.push_back(id);
    ++conn.requested;
    flush(conn);
    return id;
  }

  bool closed_followup(const Conn& conn) const {
    return options_.workload == Workload::kUtteranceClosed &&
           conn.requested % kFollowupEvery == kFollowupEvery - 1;
  }

  // ---- I/O -------------------------------------------------------------------

  void mark_dead(Conn& conn) {
    if (conn.dead) return;
    conn.dead = true;
    ++result_.errors;
    for (const std::size_t id : conn.inflight) {
      result_.requests[id].error = true;
      result_.requests[id].received = now_s();
    }
    conn.inflight.clear();
    conn.out.clear();
  }

  void flush(Conn& conn) {
    while (!conn.dead && !conn.out.empty()) {
      OutSegment& seg = conn.out.front();
      const ssize_t n = ::send(conn.fd, seg.data + seg.offset, seg.size - seg.offset,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        mark_dead(conn);
        return;
      }
      const double t = now_s();
      if (seg.offset == 0 && seg.mark == OutSegment::Mark::kRequest) {
        result_.requests[seg.id].first_byte = t;
      }
      seg.offset += static_cast<std::size_t>(n);
      if (seg.offset < seg.size) continue;
      if (seg.mark == OutSegment::Mark::kEndpoint) result_.requests[seg.id].endpoint_sent = t;
      if (seg.mark == OutSegment::Mark::kChunk) conn.chunk_sent[seg.id] = t;
      conn.out.pop_front();
    }
  }

  /// Waits for socket readiness until `deadline` (absolute now_s seconds) and
  /// handles whatever arrived or became writable.
  void pump(double deadline) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> index;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const Conn& conn = conns_[i];
      if (conn.dead) continue;
      short events = POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      index.push_back(i);
    }
    const double wait = std::max(0.0, deadline - now_s());
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait);
    timeout.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) return;
    for (std::size_t k = 0; k < fds.size(); ++k) {
      Conn& conn = conns_[index[k]];
      if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) receive(index[k]);
      if (!conn.dead && (fds[k].revents & POLLOUT)) flush(conn);
    }
  }

  void receive(std::size_t c) {
    Conn& conn = conns_[c];
    std::uint8_t buffer[1 << 16];
    while (!conn.dead) {
      const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        mark_dead(conn);
        return;
      }
      if (n == 0) {
        mark_dead(conn);
        return;
      }
      try {
        conn.reader.feed(buffer, static_cast<std::size_t>(n));
        while (auto frame = conn.reader.next()) on_frame(c, *frame);
      } catch (const serve::ProtocolError&) {
        mark_dead(conn);
        return;
      }
    }
  }

  void on_frame(std::size_t c, const serve::Frame& frame) {
    Conn& conn = conns_[c];
    const double t = now_s();
    switch (frame.type) {
      case serve::FrameType::kDecision: {
        if (conn.inflight.empty()) {
          mark_dead(conn);
          return;
        }
        Request& request = result_.requests[conn.inflight.front()];
        conn.inflight.pop_front();
        request.decision = serve::parse_decision(frame);
        request.received = t;
        request.answered = true;
        if (request.timed) result_.window_end = std::max(result_.window_end, t);
        if (on_decision_) on_decision_(c, t);
        return;
      }
      case serve::FrameType::kStreamDecision:
        on_stream_decision(c, serve::parse_stream_decision(frame), t);
        return;
      case serve::FrameType::kStreamSummary:
        (void)serve::parse_stream_summary(frame);
        result_.streams[c].summary_received = true;
        conn.summary_received = true;
        return;
      default:
        // ERROR, BUSY, or anything unexpected: the connection is lost.
        mark_dead(conn);
        return;
    }
  }

  // ---- phases ------------------------------------------------------------------

  bool all_answered() const {
    return std::all_of(conns_.begin(), conns_.end(),
                       [](const Conn& conn) { return conn.dead || conn.inflight.empty(); });
  }

  void drain() {
    const double deadline = now_s() + kDrainTimeoutSeconds;
    while (!all_answered() && now_s() < deadline) pump(std::min(deadline, now_s() + 0.05));
  }

  void warm_up() {
    on_decision_ = [this](std::size_t c, double) {
      Conn& conn = conns_[c];
      if (conn.requested < kWarmupPerConnection) send_request(c, closed_followup(conn), false, now_s());
    };
    for (std::size_t c = 0; c < conns_.size(); ++c) send_request(c, false, false, now_s());
    drain();
    on_decision_ = nullptr;
  }

  void open_window() {
    result_.window_start = now_s();
    result_.window_end = result_.window_start;
    result_.cpu_start = daemon_.cpu_seconds();
  }

  void close_window() {
    result_.cpu_end = daemon_.cpu_seconds();
    for (const auto& request : result_.requests) {
      if (!request.timed) continue;
      if (!request.answered && !request.error) ++result_.abandoned;
      if (request.answered) {
        result_.audio_seconds += inputs_.utterances[request.utterance].seconds();
      }
    }
  }

  void run_open() {
    const double rate = kOpenRatePerConnection * static_cast<double>(conns_.size());
    open_window();
    const double t0 = result_.window_start;
    const double end = t0 + options_.seconds;
    for (std::size_t k = 0;; ++k) {
      const double due = t0 + static_cast<double>(k) / rate;
      if (due >= end) break;
      while (now_s() < due) pump(due);
      const std::size_t c = k % conns_.size();
      if (conns_[c].dead) continue;
      const double sent = now_s();
      send_request(c, false, true, due);
      result_.lag_seconds.push_back(sent - due);
    }
    drain();
    close_window();
  }

  void run_closed() {
    const double end_of_window = now_s() + options_.seconds;
    on_decision_ = [this, end_of_window](std::size_t c, double received) {
      if (received >= end_of_window) return;
      Conn& conn = conns_[c];
      send_request(c, closed_followup(conn), true, 0.0);
      result_.lag_seconds.push_back(now_s() - received);
    };
    open_window();
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      send_request(c, closed_followup(conns_[c]), true, 0.0);
    }
    while (now_s() < end_of_window) pump(end_of_window);
    drain();
    on_decision_ = nullptr;
    // Closed loop: a request's latency runs from its actual first byte.
    for (auto& request : result_.requests) {
      if (request.timed && request.first_byte > 0.0) request.scheduled = request.first_byte;
    }
    close_window();
  }

  // ---- streaming ----------------------------------------------------------------

  /// Chunk k of a looped scene: the scene's whole one-frame chunks repeated.
  std::size_t scene_chunk(std::size_t scene, std::size_t k) const {
    return k % scene_chunks_[scene];
  }

  void run_stream() {
    const stream::EndpointerConfig endpoint{};
    result_.streams.resize(conns_.size());
    std::uint32_t frame_length = 0;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      send_all(conn.fd, serve::encode_stream_start());
      const auto ok = serve::parse_stream_ok(read_frame(conn.fd, conn.reader, 30000));
      frame_length = ok.vad_frame_length;
      result_.streams[c].scene = c % inputs_.scenes.size();
      result_.streams[c].vad_frame_length = ok.vad_frame_length;
    }
    if (frame_length == 0) throw std::runtime_error("STREAM_OK without a VAD frame length");
    frame_length_ = frame_length;
    hangover_minus_post_ = static_cast<std::int64_t>(endpoint.hangover_frames) -
                           static_cast<std::int64_t>(endpoint.post_roll_frames);

    // Pre-encode every scene as one-VAD-frame AUDIO_CHUNKs, and mark the
    // chunks where the stream may stop cleanly: no truth utterance is open
    // and every earlier one has had its hangover.
    const std::size_t channels = inputs_.scenes.front().audio.channel_count();
    const std::size_t guard = endpoint.hangover_frames + endpoint.onset_frames + 4;
    for (const Scene& scene : inputs_.scenes) {
      const std::size_t chunks = scene.audio.frames() / frame_length;
      scene_chunks_.push_back(chunks);
      std::vector<std::vector<std::uint8_t>> encoded(chunks);
      for (std::size_t k = 0; k < chunks; ++k) {
        encoded[k] = serve::encode_audio_chunk(
            std::span<const float>(scene.interleaved.data() + k * frame_length * channels,
                                   frame_length * channels),
            static_cast<std::uint16_t>(channels));
      }
      chunk_frames_.push_back(std::move(encoded));
      std::vector<bool> clean(chunks, true);
      for (const auto& truth : scene.truth) {
        const auto first = static_cast<std::size_t>(
            truth.begin_seconds * scene.audio.sample_rate() / frame_length);
        const auto last = static_cast<std::size_t>(
            truth.end_seconds * scene.audio.sample_rate() / frame_length);
        for (std::size_t k = first; k <= std::min(chunks - 1, last + guard); ++k) {
          clean[k] = false;
        }
      }
      clean_chunks_.push_back(std::move(clean));
    }

    const double fs = inputs_.scenes.front().audio.sample_rate();
    const double period = static_cast<double>(frame_length) / fs / kStreamPace;
    open_window();
    const double t0 = result_.window_start;
    const double end = t0 + options_.seconds;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      conns_[c].chunk_due.reserve(static_cast<std::size_t>(options_.seconds / period) + 4096);
    }
    const auto due = [&](std::size_t c, std::size_t k) {
      return t0 + period * (static_cast<double>(c) / static_cast<double>(conns_.size()) +
                            static_cast<double>(k));
    };

    while (true) {
      double next = std::numeric_limits<double>::infinity();
      bool active = false;
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        Conn& conn = conns_[c];
        if (conn.dead || conn.stream_end_sent) continue;
        active = true;
        const std::size_t scene = result_.streams[c].scene;
        while (!conn.stream_end_sent && now_s() >= due(c, conn.next_chunk)) {
          const std::size_t k = conn.next_chunk;
          if (!conn.stopping && due(c, k) >= end) conn.stopping = true;
          if (conn.stopping && clean_chunks_[scene][scene_chunk(scene, k)]) {
            conn.out.push_back({stream_end_.data(), stream_end_.size(), 0,
                                OutSegment::Mark::kNone, 0});
            conn.stream_end_sent = true;
            result_.streams[c].chunks_sent = k;
            flush(conn);
            break;
          }
          const auto& bytes = chunk_frames_[scene][scene_chunk(scene, k)];
          conn.chunk_due.push_back(due(c, k));
          conn.chunk_sent.push_back(0.0);
          result_.lag_seconds.push_back(now_s() - due(c, k));
          conn.out.push_back({bytes.data(), bytes.size(), 0, OutSegment::Mark::kChunk, k});
          ++conn.next_chunk;
          flush(conn);
        }
        if (!conn.stream_end_sent) next = std::min(next, due(c, conn.next_chunk));
      }
      if (!active) break;
      pump(next);
    }
    result_.window_end = now_s();
    const double deadline = now_s() + kDrainTimeoutSeconds;
    while (now_s() < deadline &&
           !std::all_of(conns_.begin(), conns_.end(), [](const Conn& conn) {
             return conn.dead || conn.summary_received;
           })) {
      pump(std::min(deadline, now_s() + 0.05));
    }
    result_.cpu_end = daemon_.cpu_seconds();
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (!conns_[c].summary_received) ++result_.abandoned;
      result_.audio_seconds += static_cast<double>(result_.streams[c].chunks_sent) *
                               static_cast<double>(frame_length) / fs;
    }
  }

  void on_stream_decision(std::size_t c, const serve::StreamDecisionFrame& frame, double t) {
    Conn& conn = conns_[c];
    StreamEvent event;
    event.connection = c;
    event.received = t;
    event.frame = frame;
    const double fs = inputs_.scenes.front().audio.sample_rate();
    const double frame_seconds = static_cast<double>(frame_length_) / fs;
    // The endpointer closes a segment on the VAD frame (hangover - post_roll)
    // frames past the segment end; that frame arrived in chunk close - 1.
    // Segment edges are whole VAD frames. A force-closed segment, or one
    // closed by STREAM_END, has no close chunk and stays untimed.
    const std::int64_t end_frame = std::llround(frame.end_seconds / frame_seconds);
    const std::int64_t close = end_frame + hangover_minus_post_ - 1;
    const auto begin =
        static_cast<std::size_t>(std::llround(frame.begin_seconds / frame_seconds));
    if (!frame.force_closed && close >= 0 &&
        static_cast<std::size_t>(close) < conn.chunk_sent.size() &&
        conn.chunk_sent[static_cast<std::size_t>(close)] > 0.0) {
      event.endpoint_latency = t - conn.chunk_sent[static_cast<std::size_t>(close)];
      event.timed = conn.chunk_due[static_cast<std::size_t>(close)] <
                    result_.window_start + options_.seconds;
      if (begin < conn.chunk_due.size()) event.utterance_latency = t - conn.chunk_due[begin];
    }
    result_.events.push_back(event);
  }

  const Options& options_;
  const Inputs& inputs_;
  Daemon& daemon_;
  std::vector<Conn> conns_;
  LoadResult result_;
  const std::vector<std::uint8_t> eou_plain_;
  const std::vector<std::uint8_t> eou_followup_;
  std::function<void(std::size_t, double)> on_decision_;
  // Streaming.
  std::uint32_t frame_length_ = 0;
  std::int64_t hangover_minus_post_ = 0;
  std::vector<std::size_t> scene_chunks_;
  std::vector<std::vector<std::vector<std::uint8_t>>> chunk_frames_;
  std::vector<std::vector<bool>> clean_chunks_;
  const std::vector<std::uint8_t> stream_end_ = serve::encode_stream_end();
};

}  // namespace

LoadResult run_load(const Options& options, const Inputs& inputs, Daemon& daemon) {
  Driver driver(options, inputs, daemon);
  return driver.run();
}

}  // namespace perfbench
