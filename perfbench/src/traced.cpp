// The traced run: the workload's inputs replayed in process through each
// layer's public calls, with a span around every call.
//
// Spans carry a name, start, end, parent span and request id; they are kept
// in memory and written as a Chrome trace (trace-<workload>-<seed>.json in
// the work directory's traces/) when the run ends. Each request's root span
// holds one child per layer call, so a layer's number is its spans' median
// and the root's self time (root minus its children) is what no layer
// explains. The same replay also runs once with spans off; the wall-time
// ratio of the two is the tracing overhead.
#include <algorithm>
#include <fstream>
#include <numeric>
#include <set>

#include "core/incremental_extractor.h"
#include "core/scoring_workspace.h"
#include "dsp/biquad.h"
#include "dsp/correlation.h"
#include "dsp/fft_plan.h"
#include "dsp/rolling_stft.h"
#include "dsp/srp.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "serve/session.h"
#include "stream/streaming_detector.h"
#include "stream/vad.h"
#include "tenant/service.h"

namespace perfbench {
namespace {

/// Whole-utterance requests replayed per traced pass.
constexpr std::size_t kReplayRequests = 48;
/// Tenant lookups timed per span (one lookup is below clock resolution).
constexpr std::size_t kLookupBatch = 1000;
/// The incremental operator's sliding directivity window (its
/// kDirectivityWindowSeconds): 80 ms of mixdown, rounded up to a power of two.
constexpr double kDirectivityWindowSeconds = 0.08;

struct Span {
  const char* name = nullptr;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint32_t request = 0;
};

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  int open(const char* name, std::uint32_t request, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_s(), 0.0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_s();
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Spans& spans, const char* name, std::uint32_t request, int parent)
      : spans_(spans), id_(spans.open(name, request, parent)) {}
  ~Scope() { spans_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Spans& spans_;
  int id_;
};

struct ReplayRequest {
  std::size_t utterance = 0;
  bool followup = false;
};

/// The operator's geometry, derived from the pipeline's public config the
/// same way IncrementalExtractor::begin derives it.
struct Geometry {
  std::size_t channels = 0;
  double fs = 0.0;
  std::size_t block_len = 0;
  int max_lag = 0;
  std::size_t block_fft = 0;
  std::size_t dir_fft = 0;
  double bandpass_high = 0.0;
};

Geometry geometry_of(const core::IncrementalExtractorConfig& config,
                     const audio::MultiBuffer& capture) {
  Geometry g;
  g.channels = capture.channel_count();
  g.fs = capture.sample_rate();
  g.block_len = static_cast<std::size_t>(std::max(1.0, config.block_ms * g.fs / 1000.0));
  g.max_lag = config.orientation.max_lag > 0
                  ? config.orientation.max_lag
                  : dsp::srp_max_lag(config.orientation.max_mic_distance_m, g.fs,
                                     config.orientation.speed_of_sound);
  const auto lag = static_cast<std::size_t>(g.max_lag);
  g.block_fft = dsp::next_pow2(std::max(g.block_len + lag + 1, 2 * lag + 1));
  g.dir_fft = dsp::next_pow2(static_cast<std::size_t>(g.fs * kDirectivityWindowSeconds));
  g.bandpass_high = std::min(config.preprocess.high_hz, 0.45 * g.fs);
  return g;
}

class Replay {
 public:
  Replay(const Options& options, const Inputs& inputs, const core::HeadTalkPipeline& pipeline,
         std::vector<ReplayRequest> requests, tenant::TenantService& tenants)
      : options_(options),
        inputs_(inputs),
        pipeline_(pipeline),
        requests_(std::move(requests)),
        tenants_(tenants) {}

  /// What the last pass observed beyond its spans.
  struct PassStats {
    std::vector<double> blocks;     ///< blocks accumulated per request
    std::set<std::size_t> closing;  ///< span ids of stream pushes that closed a segment
    double stream_audio_seconds = 0.0;
    std::size_t disagreements = 0;  ///< Session verdicts != score_capture
  };

  /// One pass over every request and scene; returns its wall seconds.
  double pass(Spans& spans) {
    stats_ = {};
    const double start = now_s();
    serve::SessionLimits limits;
    const bool authed = options_.workload == Workload::kUtteranceClosed;
    if (authed) limits.tenants = &tenants_;
    serve::Session session(pipeline_, limits);
    session.set_workspace(&workspace_);
    const auto& sample = inputs_.utterances.front().capture;
    serve::Hello hello;
    hello.sample_rate_hz = static_cast<std::uint32_t>(sample.sample_rate());
    hello.channels = static_cast<std::uint16_t>(sample.channel_count());
    const auto hello_bytes = serve::encode_hello(hello);
    session.on_bytes(hello_bytes.data(), hello_bytes.size());
    if (authed) {
      const auto auth = serve::encode_auth(inputs_.tenants.front());
      session.on_bytes(auth.data(), auth.size());
    }
    (void)session.take_output();
    bool open = false;
    for (std::size_t r = 0; r < requests_.size(); ++r) {
      request(spans, static_cast<std::uint32_t>(r), requests_[r], session, open);
    }
    for (std::size_t s = 0; s < inputs_.scenes.size(); ++s) {
      scene(spans, static_cast<std::uint32_t>(requests_.size() + s), inputs_.scenes[s]);
    }
    return now_s() - start;
  }

  [[nodiscard]] const PassStats& stats() const noexcept { return stats_; }

 private:
  void request(Spans& spans, std::uint32_t id, const ReplayRequest& rq,
               serve::Session& session, bool& open) {
    const Utterance& u = inputs_.utterances[rq.utterance];
    const auto& capture = u.capture;
    const std::string& tenant = inputs_.tenants.front();
    Scope root(spans, "request", id, -1);
    const int parent = root.id();

    // serve: the session state machine, fed the wire bytes.
    const auto& eou = rq.followup ? eou_followup_ : eou_plain_;
    {
      Scope s(spans, "serve.session_ingest", id, parent);
      session.on_bytes(u.chunk_bytes.data(), u.chunk_bytes.size());
    }
    {
      Scope s(spans, "serve.session_score", id, parent);
      session.on_bytes(eou.data(), eou.size());
    }
    std::vector<std::uint8_t> out = session.take_output();

    // core: score_capture, then its accumulate / finalize split.
    core::FeatureCapture features;
    core::PipelineResult result;
    {
      Scope s(spans, "core.score_capture", id, parent);
      result = pipeline_.score_capture(capture, core::VaMode::kHeadTalk, rq.followup, open,
                                       &workspace_, &features);
    }
    {
      Scope s(spans, "harness.check", id, parent);
      serve::FrameReader reader;
      reader.feed(out.data(), out.size());
      const auto frame = reader.next();
      const bool agree =
          frame && frame->type == serve::FrameType::kDecision && [&] {
            const auto d = serve::parse_decision(*frame);
            return d.decision == static_cast<std::uint8_t>(result.decision) &&
                   d.liveness_score == result.liveness_score &&
                   d.orientation_score == result.orientation_score;
          }();
      if (!agree) ++stats_.disagreements;
    }
    const auto& config = pipeline_.incremental_config();
    {
      Scope s(spans, "core.accumulate", id, parent);
      extractor_.begin(config, capture.channel_count(), capture.sample_rate());
      extractor_.push(capture);
    }
    stats_.blocks.push_back(static_cast<double>(extractor_.blocks_accumulated()));
    {
      Scope s(spans, "core.finalize", id, parent);
      (void)pipeline_.finalize_segment(extractor_, core::VaMode::kHeadTalk, rq.followup, open);
    }
    auto no_orientation = config;
    no_orientation.enable_orientation = false;
    {
      Scope s(spans, "core.accumulate_no_orientation", id, parent);
      extractor_.begin(no_orientation, capture.channel_count(), capture.sample_rate());
      extractor_.push(capture);
    }
    auto no_liveness = config;
    no_liveness.enable_liveness = false;
    {
      Scope s(spans, "core.accumulate_no_liveness", id, parent);
      extractor_.begin(no_liveness, capture.channel_count(), capture.sample_rate());
      extractor_.push(capture);
    }

    // ml: the two classifiers on this request's feature vectors.
    double sink = 0.0;
    {
      Scope s(spans, "ml.liveness_score", id, parent);
      sink += pipeline_.liveness().score(features.liveness);
    }
    if (!features.orientation.empty()) {
      Scope s(spans, "ml.orientation_predict", id, parent);
      sink += pipeline_.orientation().score(features.orientation);
      sink += pipeline_.orientation().is_facing(features.orientation) ? 1.0 : 0.0;
    }

    dsp_layers(spans, id, parent, capture);

    // tenant: snapshot lookup and the policy (identity match included).
    {
      Scope s(spans, "tenant.lookup", id, parent);
      for (std::size_t i = 0; i < kLookupBatch; ++i) {
        sink += tenants_.store().lookup(tenant) != nullptr ? 1.0 : 0.0;
      }
    }
    tenant::PolicyDecision policy;
    {
      Scope s(spans, "tenant.policy", id, parent);
      policy = tenants_.decide(tenant, result, features);
    }
    const bool authed = options_.workload == Workload::kUtteranceClosed;
    const bool allowed = authed ? policy.allowed : result.decision == core::Decision::kAccepted;
    open = result.session_open_after && allowed;
    sink_ += sink;
  }

  void dsp_layers(Spans& spans, std::uint32_t id, int parent,
                  const audio::MultiBuffer& capture) {
    const auto& config = pipeline_.incremental_config();
    const Geometry g = geometry_of(config, capture);
    std::vector<std::vector<audio::Sample>> filtered(g.channels);
    std::vector<dsp::BiquadCascade> bandpass;
    dsp::RollingStft blocks;
    dsp::RollingStft::Config block_config;
    block_config.channels = g.channels;
    block_config.frame_size = g.block_len;
    block_config.hop_size = g.block_len;
    block_config.fft_size = g.block_fft;
    block_config.window = dsp::WindowType::kRectangular;
    {
      Scope s(spans, "harness.prepare", id, parent);
      for (std::size_t c = 0; c < g.channels; ++c) {
        const auto samples = capture.channel(c).samples();
        filtered[c].assign(samples.begin(), samples.end());
        bandpass.push_back(dsp::butterworth_bandpass(config.preprocess.filter_order,
                                                     config.preprocess.low_hz,
                                                     g.bandpass_high, g.fs));
      }
      blocks.reset(block_config);
    }
    {
      Scope s(spans, "dsp.bandpass", id, parent);
      for (std::size_t c = 0; c < g.channels; ++c) bandpass[c].process(filtered[c]);
    }
    std::size_t popped = 0;
    {
      Scope s(spans, "dsp.block_stft", id, parent);
      dsp::RollingStftFrame frame;
      for (std::size_t c = 0; c < g.channels; ++c) blocks.push(c, filtered[c]);
      while (blocks.pop(frame)) ++popped;
      blocks.finish();
      while (blocks.pop(frame)) ++popped;
    }

    // Block spectra and sliding mixdown windows, kept for the per-block
    // primitives below (the operator consumes them as they are produced).
    std::vector<std::vector<dsp::HalfSpectrum>> spectra;
    std::vector<std::vector<audio::Sample>> windows;
    {
      Scope s(spans, "harness.prepare", id, parent);
      blocks.reset(block_config);
      for (std::size_t c = 0; c < g.channels; ++c) blocks.push(c, filtered[c]);
      blocks.finish();
      std::vector<audio::Sample> mix;
      dsp::RollingStftFrame frame;
      while (blocks.pop(frame)) {
        spectra.emplace_back(frame.spectra.begin(), frame.spectra.end());
        for (std::size_t i = 0; i < frame.valid; ++i) {
          double sum = 0.0;
          for (std::size_t c = 0; c < g.channels; ++c) sum += frame.windowed[c][i];
          mix.push_back(sum / static_cast<double>(g.channels));
        }
        const std::size_t begin = mix.size() > g.dir_fft ? mix.size() - g.dir_fft : 0;
        windows.emplace_back(mix.begin() + static_cast<std::ptrdiff_t>(begin), mix.end());
      }
    }
    {
      Scope s(spans, "dsp.pair_gcc", id, parent);
      dsp::CorrelationSequence out;
      for (const auto& block : spectra) {
        for (std::size_t i = 0; i + 1 < block.size(); ++i) {
          for (std::size_t j = i + 1; j < block.size(); ++j) {
            dsp::gcc_phat_from_spectra_into(block[i], block[j], g.max_lag, out, correlation_);
          }
        }
      }
    }
    {
      Scope s(spans, "dsp.directivity_fft", id, parent);
      dsp::HalfSpectrum out;
      for (const auto& window : windows) dsp::rfft_half_into(window, g.dir_fft, out, fft_);
    }

    // Liveness path: anti-alias, integer decimation to the model rate, and
    // the rolling STFT over channel 0 (already band-passed above).
    const auto& live = config.liveness;
    const auto step = static_cast<std::size_t>(std::max(1.0, std::round(g.fs / live.model_sample_rate)));
    dsp::BiquadCascade antialias;
    dsp::RollingStft live_stft;
    {
      Scope s(spans, "harness.prepare", id, parent);
      antialias = dsp::butterworth_lowpass(10, 0.45 * live.model_sample_rate, g.fs);
      dsp::RollingStft::Config stft;
      stft.channels = 1;
      stft.frame_size = live.stft_frame;
      stft.hop_size = live.stft_hop;
      stft.window = dsp::WindowType::kHann;
      live_stft.reset(stft);
    }
    {
      Scope s(spans, "dsp.liveness_resample", id, parent);
      std::vector<audio::Sample> emitted;
      emitted.reserve(filtered[0].size() / step + 1);
      for (std::size_t i = 0; i < filtered[0].size(); ++i) {
        const double y = antialias.process(filtered[0][i]);
        if (i % step == 0) emitted.push_back(y);
      }
      live_stft.push(0, emitted);
      dsp::RollingStftFrame frame;
      while (live_stft.pop(frame)) ++popped;
      live_stft.finish();
      while (live_stft.pop(frame)) ++popped;
    }
    sink_ += static_cast<double>(popped);
  }

  void scene(Spans& spans, std::uint32_t id, const Scene& scene) {
    Scope root(spans, "request", id, -1);
    const int parent = root.id();
    const std::size_t channels = scene.audio.channel_count();
    const double fs = scene.audio.sample_rate();
    stream::Vad vad(stream::VadConfig{}, fs);
    const std::size_t frame = vad.frame_length();
    const std::size_t chunks = scene.audio.frames() / frame;
    {
      Scope s(spans, "stream.vad", id, parent);
      sink_ += static_cast<double>(vad.push(scene.audio.channel(0).samples()).size());
    }
    stats_.stream_audio_seconds += static_cast<double>(chunks * frame) / fs;

    stream::StreamingDetector detector(pipeline_, channels, fs);
    detector.set_workspace(&workspace_);
    for (std::size_t k = 0; k < chunks; ++k) {
      const std::span<const float> chunk(scene.interleaved.data() + k * frame * channels,
                                         frame * channels);
      const int span = spans.open("stream.push", id, parent);
      const auto events = detector.push_interleaved(chunk);
      spans.close(span);
      if (span >= 0 && !events.empty()) stats_.closing.insert(static_cast<std::size_t>(span));
    }
    {
      Scope s(spans, "stream.flush", id, parent);
      sink_ += static_cast<double>(detector.flush().size());
    }

    std::vector<std::vector<std::uint8_t>> frames(chunks);
    serve::Session session(pipeline_, serve::SessionLimits{});
    session.set_workspace(&workspace_);
    {
      Scope s(spans, "harness.prepare", id, parent);
      for (std::size_t k = 0; k < chunks; ++k) {
        frames[k] = serve::encode_audio_chunk(
            std::span<const float>(scene.interleaved.data() + k * frame * channels,
                                   frame * channels),
            static_cast<std::uint16_t>(channels));
      }
      serve::Hello hello;
      hello.sample_rate_hz = static_cast<std::uint32_t>(fs);
      hello.channels = static_cast<std::uint16_t>(channels);
      const auto hello_bytes = serve::encode_hello(hello);
      session.on_bytes(hello_bytes.data(), hello_bytes.size());
      const auto start = serve::encode_stream_start();
      session.on_bytes(start.data(), start.size());
      (void)session.take_output();
    }
    for (const auto& bytes : frames) {
      Scope s(spans, "serve.stream_chunk", id, parent);
      session.on_bytes(bytes.data(), bytes.size());
    }
    {
      Scope s(spans, "serve.stream_end", id, parent);
      const auto end = serve::encode_stream_end();
      session.on_bytes(end.data(), end.size());
      sink_ += static_cast<double>(session.take_output().size());
    }
  }

 private:
  const Options& options_;
  const Inputs& inputs_;
  const core::HeadTalkPipeline& pipeline_;
  std::vector<ReplayRequest> requests_;
  tenant::TenantService& tenants_;
  core::ScoringWorkspace workspace_;
  core::IncrementalExtractor extractor_;
  dsp::CorrelationWorkspace correlation_;
  dsp::FftScratch fft_;
  const std::vector<std::uint8_t> eou_plain_ = serve::encode_end_of_utterance(false);
  const std::vector<std::uint8_t> eou_followup_ = serve::encode_end_of_utterance(true);
  PassStats stats_;
  double sink_ = 0.0;  ///< keeps every timed result observable
};

/// Span durations by name, in microseconds (optionally filtered by index).
std::map<std::string, std::vector<double>> durations(const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const auto& span : spans) out[span.name].push_back(1e6 * (span.end - span.start));
  return out;
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

void write_chrome_trace(const fs::path& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  const double origin = spans.empty() ? 0.0 : spans.front().start;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& span = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << 1e6 * (span.start - origin)
        << ",\"dur\":" << 1e6 * (span.end - span.start) << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request << "}}";
  }
  out << "\n]}\n";
}

}  // namespace

LayerMetrics run_traced(const Options& options, const Inputs& inputs,
                        const core::HeadTalkPipeline& pipeline, const LoadResult& load,
                        std::size_t& disagreements) {
  // The workload's own request sequence (its follow-up mix included); the
  // streaming workload replays each pre-segmented truth span once.
  std::vector<ReplayRequest> requests;
  if (options.workload == Workload::kStreamPaced) {
    for (std::size_t u = 0; u < inputs.utterances.size(); ++u) requests.push_back({u, false});
  } else {
    for (const auto& request : load.requests) {
      if (request.timed && requests.size() < kReplayRequests) {
        requests.push_back({request.utterance, request.followup});
      }
    }
  }
  tenant::TenantService tenants(inputs.store_dir);
  Replay replay(options, inputs, pipeline, requests, tenants);

  // Passes alternate untraced / traced and the overhead compares the
  // fastest of each, so one noisy pass on a shared host does not decide it.
  // The layer figures come from the last (traced) pass.
  Spans off(false);
  Spans first(true);
  double untraced_wall = replay.pass(off);
  double traced_wall = replay.pass(first);
  untraced_wall = std::min(untraced_wall, replay.pass(off));

  auto& pruned = obs::Registry::global().counter("dsp.srp.pairs_pruned");
  auto& orientation_stages =
      core::pipeline_stage_histogram("pipeline.stage.orientation_features_seconds");
  const std::uint64_t pruned_before = pruned.value();
  const std::uint64_t stages_before = orientation_stages.count();
  const auto plans_before = dsp::FftPlanCache::global().stats();
  Spans traced(true);
  traced_wall = std::min(traced_wall, replay.pass(traced));
  const auto plans_after = dsp::FftPlanCache::global().stats();
  const auto& stats = replay.stats();
  const double pairs =
      static_cast<double>(orientation_stages.count() - stages_before) *
      static_cast<double>(inputs.utterances.front().capture.channel_count() *
                          (inputs.utterances.front().capture.channel_count() - 1) / 2);
  const double pruned_pairs = static_cast<double>(pruned.value() - pruned_before);

  const auto& spans = traced.spans();
  auto d = durations(spans);
  const auto median = [&](const char* name) { return quantile(d[name], 0.5); };

  LayerMetrics m;
  const auto put = [&m](const std::string& name, double value, const char* unit) {
    m[name] = {value, unit};
  };
  // serve
  put("serve.session_ingest_us", median("serve.session_ingest"), "us");
  put("serve.session_score_us", median("serve.session_score"), "us");
  put("serve.stream_chunk_us", median("serve.stream_chunk"), "us");
  // core
  const double accumulate = median("core.accumulate");
  put("core.score_capture_us", median("core.score_capture"), "us");
  put("core.accumulate_us", accumulate, "us");
  put("core.accumulate_orientation_us", accumulate - median("core.accumulate_no_orientation"),
      "us");
  put("core.accumulate_liveness_us", accumulate - median("core.accumulate_no_liveness"), "us");
  put("core.finalize_us", median("core.finalize"), "us");
  put("core.blocks_per_utterance", quantile(stats.blocks, 0.5), "count");
  // dsp
  static const char* const kDsp[] = {"dsp.bandpass", "dsp.block_stft", "dsp.pair_gcc",
                                     "dsp.directivity_fft", "dsp.liveness_resample"};
  double dsp_total = 0.0;
  for (const char* name : kDsp) {
    put(std::string(name) + "_us", median(name), "us");
    dsp_total += sum(d[name]);
  }
  const double accumulate_total = sum(d["core.accumulate"]);
  put("dsp.coverage_ratio", accumulate_total > 0.0 ? dsp_total / accumulate_total : 0.0,
      "ratio");
  const double lookups = static_cast<double>((plans_after.hits - plans_before.hits) +
                                             (plans_after.misses - plans_before.misses));
  put("dsp.fft_plan_lookups", lookups, "count");
  put("dsp.fft_plan_hit_ratio",
      lookups > 0.0 ? static_cast<double>(plans_after.hits - plans_before.hits) / lookups : 0.0,
      "ratio");
  put("dsp.pairs_evaluated", pairs, "count");
  put("dsp.pairs_pruned_ratio", pairs > 0.0 ? pruned_pairs / pairs : 0.0, "ratio");
  // ml
  put("ml.orientation_predict_us", median("ml.orientation_predict"), "us");
  put("ml.liveness_score_us", median("ml.liveness_score"), "us");
  // tenant
  put("tenant.lookup_ns", 1e3 * median("tenant.lookup") / static_cast<double>(kLookupBatch),
      "ns");
  put("tenant.policy_us", median("tenant.policy"), "us");
  // stream
  std::vector<double> pushes, closes;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) != "stream.push") continue;
    const double us = 1e6 * (spans[i].end - spans[i].start);
    (stats.closing.count(i) ? closes : pushes).push_back(us);
  }
  const double audio_s = stats.stream_audio_seconds;
  put("stream.vad_us_per_audio_s", audio_s > 0.0 ? sum(d["stream.vad"]) / audio_s : 0.0, "us/s");
  put("stream.push_us_per_audio_s", audio_s > 0.0 ? sum(pushes) / audio_s : 0.0, "us/s");
  put("stream.close_us", quantile(closes, 0.5), "us");
  // harness validity
  double root_total = 0.0, root_self = 0.0;
  std::vector<double> children(spans.size(), 0.0);
  for (const auto& span : spans) {
    if (span.parent >= 0) children[static_cast<std::size_t>(span.parent)] += span.end - span.start;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    root_total += spans[i].end - spans[i].start;
    root_self += spans[i].end - spans[i].start - children[i];
  }
  put("trace.overhead_ratio", untraced_wall > 0.0 ? traced_wall / untraced_wall : 0.0, "ratio");
  put("trace.unattributed_ratio", root_total > 0.0 ? root_self / root_total : 0.0, "ratio");
  put("trace.spans", static_cast<double>(spans.size()), "count");
  disagreements = stats.disagreements;

  fs::create_directories(options.trace_dir);
  write_chrome_trace(options.trace_dir /
                         ("trace-" + options.workload_name + "-" +
                          std::to_string(options.seed) + ".json"),
                     spans);
  return m;
}

}  // namespace perfbench
