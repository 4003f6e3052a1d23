// §IV-B15: runtime of the HeadTalk pipeline stages.
// Paper (PC, i7-2600): liveness ~42 ms, orientation ~136 ms per wake word;
// the prototype ARM board needs 527 ms for orientation. The absolute
// numbers depend on hardware; the shape claim is that orientation costs a
// small multiple of liveness and both fit a VA's response budget.
//
// Two measurements share this binary:
//  1. A cold-vs-warm comparison of the feature extractors: cold rebuilds
//     FFT plans every call (FftPlanCache disabled) and allocates all
//     scratch per call; warm reuses cached plans and a ScoringWorkspace.
//     The per-utterance latencies, the speedup, and the plan-cache traffic
//     land in the BENCH_runtime.json perf record; the run fails if cold
//     and warm features are not bit-identical.
//  2. The google-benchmark stage timings (skipped when
//     $HEADTALK_RUNTIME_SKIP_GBENCH=1, e.g. in the bench-smoke ctest).
#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <random>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/incremental_extractor.h"
#include "core/liveness_detector.h"
#include "core/liveness_features.h"
#include "core/orientation_classifier.h"
#include "core/orientation_features.h"
#include "core/pipeline.h"
#include "core/scoring_workspace.h"
#include "dsp/biquad.h"
#include "dsp/correlation.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/simd/dispatch.h"
#include "sim/collector.h"

using namespace headtalk;

namespace {

// One fixed rendered capture shared by all benchmarks.
const audio::MultiBuffer& capture() {
  static const audio::MultiBuffer instance = [] {
    sim::CollectorConfig cfg;
    cfg.cache_enabled = false;
    sim::Collector collector(cfg);
    sim::SampleSpec spec;
    spec.location = {sim::GridRadial::kMiddle, 3.0};
    return collector.capture(spec);
  }();
  return instance;
}

core::OrientationClassifier train_orientation() {
  // A small synthetic training set: runtime depends on support-vector
  // count and feature dimension, both matched to the real pipeline.
  core::OrientationFeatureExtractor extractor;
  const auto dim = extractor.dimension(4);
  std::mt19937 rng(1);
  std::normal_distribution<double> g(0.0, 1.0);
  ml::Dataset data;
  for (int i = 0; i < 80; ++i) {
    ml::FeatureVector a(dim), b(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      a[j] = g(rng) + 1.0;
      b[j] = g(rng) - 1.0;
    }
    data.add(std::move(a), core::kLabelFacing);
    data.add(std::move(b), core::kLabelNonFacing);
  }
  core::OrientationClassifier clf;
  clf.train(data);
  return clf;
}

core::LivenessDetector train_liveness() {
  core::LivenessFeatureExtractor extractor;
  const auto dim = extractor.dimension();
  std::mt19937 rng(2);
  std::normal_distribution<double> g(0.0, 1.0);
  ml::Dataset data;
  for (int i = 0; i < 80; ++i) {
    ml::FeatureVector a(dim), b(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      a[j] = g(rng) + 1.0;
      b[j] = g(rng) - 1.0;
    }
    data.add(std::move(a), core::kLabelLive);
    data.add(std::move(b), core::kLabelReplay);
  }
  core::LivenessDetector det;
  det.train(data);
  return det;
}

const core::HeadTalkPipeline& pipeline() {
  static const core::HeadTalkPipeline instance(train_orientation(), train_liveness());
  return instance;
}

const core::OrientationClassifier& trained_orientation() { return pipeline().orientation(); }
const core::LivenessDetector& trained_liveness() { return pipeline().liveness(); }

void BM_LivenessDetection(benchmark::State& state) {
  // One channel -> features -> network score (the paper's 42 ms stage).
  core::LivenessFeatureExtractor extractor;
  auto& detector = trained_liveness();
  for (auto _ : state) {
    const auto features = extractor.extract(capture().channel(0));
    benchmark::DoNotOptimize(detector.score(features));
  }
}
BENCHMARK(BM_LivenessDetection)->Unit(benchmark::kMillisecond);

void BM_OrientationDetection(benchmark::State& state) {
  // Four channels -> SRP/GCC/directivity features -> SVM (the 136 ms stage).
  core::OrientationFeatureExtractor extractor;
  auto& classifier = trained_orientation();
  for (auto _ : state) {
    const auto features = extractor.extract(capture());
    benchmark::DoNotOptimize(classifier.predict(features));
  }
}
BENCHMARK(BM_OrientationDetection)->Unit(benchmark::kMillisecond);

void BM_FullHeadTalkDecision(benchmark::State& state) {
  // The production path: raw capture -> one accumulation pass (band-pass,
  // trim, both feature sets) -> liveness and orientation verdicts.
  core::ScoringWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline().score_capture(capture(), core::VaMode::kHeadTalk,
                                                    /*followup=*/false,
                                                    /*session_active=*/false, &workspace));
  }
}
BENCHMARK(BM_FullHeadTalkDecision)->Unit(benchmark::kMillisecond);

void BM_Bandpass(benchmark::State& state) {
  // The Fig. 2 band-pass over the whole capture: through the operator's
  // MultichannelBiquadCascade (lanes:1, one dispatched biquad_cascade call
  // for every channel at the active level) and as one BiquadCascade per
  // channel (lanes:0), the layout it replaced.
  const audio::MultiBuffer& x = capture();
  const core::PreprocessConfig pre;
  const dsp::BiquadCascade design = dsp::butterworth_bandpass(
      pre.filter_order, pre.low_hz, std::min(pre.high_hz, 0.45 * x.sample_rate()),
      x.sample_rate());
  std::vector<audio::Sample> out;
  if (state.range(0) == 0) {
    std::vector<dsp::BiquadCascade> cascades(x.channel_count(), design);
    for (auto _ : state) {
      for (std::size_t c = 0; c < x.channel_count(); ++c) {
        const auto samples = x.channel(c).samples();
        out.assign(samples.begin(), samples.end());
        cascades[c].process(out);
        benchmark::DoNotOptimize(out.data());
      }
      benchmark::ClobberMemory();
    }
    state.SetLabel("per-channel BiquadCascade");
  } else {
    dsp::MultichannelBiquadCascade lanes;
    lanes.reset(design, x.channel_count());
    for (auto _ : state) {
      lanes.process(x, 0, x.frames(), out);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
    state.SetLabel(std::string("simd biquad_cascade, ") + dsp::simd::kernels().name);
  }
}
BENCHMARK(BM_Bandpass)->ArgName("lanes")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The operator's per-block transforms on one 20 ms block of the capture
// (D2: 4 channels, 960 samples, 1024-point block FFT, lag window ±13).
// lanes:0 runs one transform per call, the layout the lane kernels
// replaced; lanes:1 runs the lane path the operator uses.
constexpr std::size_t kBlockLen = 960;
constexpr std::size_t kBlockFft = 1024;
constexpr int kBlockMaxLag = 13;
constexpr std::size_t kLanes = dsp::simd::kFftLanes;

std::vector<const audio::Sample*> block_channels() {
  std::vector<const audio::Sample*> channels;
  const std::size_t offset = capture().frames() / 2;
  for (std::size_t c = 0; c < capture().channel_count(); ++c) {
    channels.push_back(capture().channel(c).samples().data() + offset);
  }
  return channels;
}

std::vector<std::pair<std::size_t, std::size_t>> channel_pairs(std::size_t channels) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i + 1 < channels; ++i) {
    for (std::size_t j = i + 1; j < channels; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

void BM_BlockStft(benchmark::State& state) {
  const auto channels = block_channels();
  if (state.range(0) == 0) {
    std::vector<dsp::HalfSpectrum> spectra(channels.size());
    dsp::FftScratch scratch;
    for (auto _ : state) {
      for (std::size_t c = 0; c < channels.size(); ++c) {
        dsp::rfft_half_into({channels[c], kBlockLen}, kBlockFft, spectra[c], scratch);
        benchmark::DoNotOptimize(spectra[c].bins.data());
      }
      benchmark::ClobberMemory();
    }
    state.SetLabel("rfft_half_into per channel");
  } else {
    std::vector<dsp::LaneSpectrum> spectra((channels.size() + kLanes - 1) / kLanes);
    dsp::LaneScratch scratch;
    for (auto _ : state) {
      for (std::size_t g = 0; g < spectra.size(); ++g) {
        const std::size_t count = std::min(kLanes, channels.size() - g * kLanes);
        dsp::rfft_lanes_into({channels.data() + g * kLanes, count}, kBlockLen, kBlockFft,
                             spectra[g], scratch);
        benchmark::DoNotOptimize(spectra[g].re.data());
      }
      benchmark::ClobberMemory();
    }
    state.SetLabel(std::string("rfft_lanes_into, ") + dsp::simd::kernels().name);
  }
}
BENCHMARK(BM_BlockStft)->ArgName("lanes")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_PairGcc(benchmark::State& state) {
  // PHAT cross spectrum and pruned inverse over the lag window for every
  // microphone pair, from the block spectra (coherence sums excluded: the
  // per-transform path has no counterpart).
  const auto channels = block_channels();
  const auto pairs = channel_pairs(channels.size());
  if (state.range(0) == 0) {
    std::vector<dsp::HalfSpectrum> spectra(channels.size());
    dsp::FftScratch scratch;
    for (std::size_t c = 0; c < channels.size(); ++c) {
      dsp::rfft_half_into({channels[c], kBlockLen}, kBlockFft, spectra[c], scratch);
    }
    dsp::CorrelationWorkspace workspace;
    dsp::CorrelationSequence out;
    for (auto _ : state) {
      for (const auto& [i, j] : pairs) {
        dsp::gcc_phat_from_spectra_into(spectra[i], spectra[j], kBlockMaxLag, out, workspace);
        benchmark::DoNotOptimize(out.values.data());
      }
      benchmark::ClobberMemory();
    }
    state.SetLabel("gcc_phat_from_spectra_into per pair");
  } else {
    std::vector<dsp::LaneSpectrum> spectra((channels.size() + kLanes - 1) / kLanes);
    dsp::LaneScratch scratch;
    for (std::size_t g = 0; g < spectra.size(); ++g) {
      const std::size_t count = std::min(kLanes, channels.size() - g * kLanes);
      dsp::rfft_lanes_into({channels.data() + g * kLanes, count}, kBlockLen, kBlockFft,
                           spectra[g], scratch);
    }
    dsp::LaneSpectrum x = spectra[0], y = spectra[0], cross = spectra[0];
    std::vector<double> windows;
    const auto& kernels = dsp::simd::kernels();
    for (auto _ : state) {
      for (std::size_t first = 0; first < pairs.size(); first += kLanes) {
        const dsp::LaneSpectrum* x_from[kLanes] = {};
        const dsp::LaneSpectrum* y_from[kLanes] = {};
        std::size_t x_lane[kLanes] = {}, y_lane[kLanes] = {};
        for (std::size_t l = 0; l < kLanes && first + l < pairs.size(); ++l) {
          const auto [i, j] = pairs[first + l];
          x_from[l] = &spectra[i / kLanes];
          x_lane[l] = i % kLanes;
          y_from[l] = &spectra[j / kLanes];
          y_lane[l] = j % kLanes;
        }
        const dsp::LaneSelection xs = dsp::select_lanes(x_from, x_lane, x);
        const dsp::LaneSelection ys = dsp::select_lanes(y_from, y_lane, y);
        kernels.phat_lanes(xs.re, xs.im, xs.order, ys.re, ys.im, ys.order, cross.re.data(),
                           cross.im.data(), kBlockFft / 2 + 1, 1e-12);
        dsp::irfft_lanes_window_into(cross, kBlockMaxLag, windows, scratch);
        benchmark::DoNotOptimize(windows.data());
      }
      benchmark::ClobberMemory();
    }
    state.SetLabel(std::string("phat_lanes + irfft_lanes_window_into, ") + kernels.name);
  }
}
BENCHMARK(BM_PairGcc)->ArgName("lanes")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_DirectivityFft(benchmark::State& state) {
  // The directivity work of one 20 ms block at 48 kHz: mix the 4 channels
  // down and take the magnitudes of the 344 bins (0–4 kHz at 11.7 Hz) the
  // HLBR and banded features read, over the ~85 ms window.
  //   lanes:0 — the full-rate reference: mixdown into a 4096-sample ring
  //             (per-sample modulo and divide), the 4096-point
  //             rfft_half_into of the window and std::abs per bin;
  //   lanes:1 — the operator's path: channel-major mixdown, its 49-tap
  //             decimator by 4 (fir_decimate) into a 1024-sample ring at
  //             12 kHz, and the 1024-point rfft_magnitudes_head.
  constexpr std::size_t kBlock = 960;
  constexpr std::size_t kBins = 344;
  const audio::MultiBuffer& x = capture();
  const std::size_t channels = x.channel_count();
  const std::size_t first = x.frames() / 2;
  std::vector<const audio::Sample*> block(channels);
  for (std::size_t c = 0; c < channels; ++c) block[c] = x.channel(c).samples().data() + first;
  std::vector<double> magnitudes(kBins);
  if (state.range(0) == 0) {
    constexpr std::size_t kFft = 4096;
    std::vector<audio::Sample> ring(kFft, 0.0), window(kFft);
    std::size_t mixed = 0;
    dsp::HalfSpectrum spectrum;
    dsp::FftScratch scratch;
    for (auto _ : state) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        double mix = 0.0;
        for (std::size_t c = 0; c < channels; ++c) mix += block[c][i];
        ring[mixed % kFft] = mix / static_cast<double>(channels);
        ++mixed;
      }
      const std::size_t oldest = mixed % kFft;
      std::copy(ring.begin() + static_cast<std::ptrdiff_t>(oldest), ring.end(), window.begin());
      std::copy(ring.begin(), ring.begin() + static_cast<std::ptrdiff_t>(oldest),
                window.end() - static_cast<std::ptrdiff_t>(oldest));
      dsp::rfft_half_into(window, kFft, spectrum, scratch);
      for (std::size_t k = 0; k < kBins; ++k) magnitudes[k] = std::abs(spectrum.bins[k]);
      benchmark::DoNotOptimize(magnitudes.data());
      benchmark::ClobberMemory();
    }
    state.SetLabel("48 kHz mixdown + 4096-point rfft_half_into + std::abs");
  } else {
    dsp::FirDecimator decimator =
        core::directivity_decimator(x.sample_rate(), channels, 4000.0);
    const std::size_t fft = 4096 / decimator.step();
    std::vector<audio::Sample> ring(fft, 0.0);
    std::size_t decimated = 0;
    dsp::LaneScratch scratch;
    const auto& accumulate = dsp::simd::kernels().accumulate;
    for (auto _ : state) {
      double* mix = decimator.append(kBlock);
      std::copy_n(block[0], kBlock, mix);
      for (std::size_t c = 1; c < channels; ++c) accumulate(mix, block[c], kBlock);
      for (std::size_t ready = decimator.ready(); ready > 0;) {
        const std::size_t at = decimated % fft;
        const std::size_t take = std::min(ready, fft - at);
        decimator.emit(ring.data() + at, take);
        decimated += take;
        ready -= take;
      }
      const std::span<const audio::Sample> held(ring);
      const std::size_t oldest = decimated % fft;
      dsp::rfft_magnitudes_head(held.subspan(oldest), held.first(oldest), fft, kBins,
                                magnitudes.data(), scratch);
      benchmark::DoNotOptimize(magnitudes.data());
      benchmark::ClobberMemory();
    }
    state.SetLabel(std::string("fir_decimate x4 + 1024-point rfft_magnitudes_head, ") +
                   dsp::simd::kernels().name);
  }
}
BENCHMARK(BM_DirectivityFft)->ArgName("lanes")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

template <typename Fn>
double time_ms_per_iter(int iterations, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) fn();
  const auto elapsed =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start);
  return elapsed.count() / static_cast<double>(iterations);
}

/// Cold-vs-warm scoring-engine measurement; returns false when the
/// determinism contract (cold features == warm features, bitwise) breaks.
bool run_plan_cache_record() {
  const int iters = env_int("HEADTALK_RUNTIME_BENCH_ITERS", 10);
  auto& cache = dsp::FftPlanCache::global();
  const core::OrientationFeatureExtractor orientation_extractor;
  const core::LivenessFeatureExtractor liveness_extractor;
  auto& recorder = bench::PerfRecorder::instance();

  bench::print_note("\nScoring-engine warm-up effect (plan cache + workspace reuse):");

  // --- Cold: every call rebuilds its FFT plans and scratch buffers ---
  cache.set_enabled(false);
  cache.clear();
  const auto orientation_cold = orientation_extractor.extract(capture());
  const double orientation_cold_ms = time_ms_per_iter(iters, [&] {
    benchmark::DoNotOptimize(orientation_extractor.extract(capture()));
  });
  const auto liveness_cold = liveness_extractor.extract(capture().channel(0));
  const double liveness_cold_ms = time_ms_per_iter(iters, [&] {
    benchmark::DoNotOptimize(liveness_extractor.extract(capture().channel(0)));
  });

  // --- Warm: cached plans + per-thread workspace, one warm-up call ---
  cache.set_enabled(true);
  cache.clear();
  const auto stats_before = cache.stats();
  core::ScoringWorkspace workspace;
  const auto orientation_warm = orientation_extractor.extract(capture(), &workspace);
  const double orientation_warm_ms = time_ms_per_iter(iters, [&] {
    benchmark::DoNotOptimize(orientation_extractor.extract(capture(), &workspace));
  });
  const auto liveness_warm = liveness_extractor.extract(capture().channel(0), &workspace);
  const double liveness_warm_ms = time_ms_per_iter(iters, [&] {
    benchmark::DoNotOptimize(liveness_extractor.extract(capture().channel(0), &workspace));
  });
  const auto stats_after = cache.stats();

  const double orientation_speedup =
      orientation_warm_ms > 0.0 ? orientation_cold_ms / orientation_warm_ms : 0.0;
  const double liveness_speedup =
      liveness_warm_ms > 0.0 ? liveness_cold_ms / liveness_warm_ms : 0.0;

  std::printf("  orientation: cold %8.2f ms  warm %8.2f ms  speedup %.2fx  (paper: 136 ms)\n",
              orientation_cold_ms, orientation_warm_ms, orientation_speedup);
  std::printf("  liveness:    cold %8.2f ms  warm %8.2f ms  speedup %.2fx  (paper: 42 ms)\n",
              liveness_cold_ms, liveness_warm_ms, liveness_speedup);
  std::printf("  plan cache:  %llu hits / %llu misses over the warm phase; "
              "workspace served %llu extractions\n",
              static_cast<unsigned long long>(stats_after.hits - stats_before.hits),
              static_cast<unsigned long long>(stats_after.misses - stats_before.misses),
              static_cast<unsigned long long>(workspace.uses()));

  recorder.add_samples(static_cast<std::size_t>(4 * iters + 4));
  recorder.set_metric("orientation_cold_ms", orientation_cold_ms);
  recorder.set_metric("orientation_warm_ms", orientation_warm_ms);
  recorder.set_metric("orientation_speedup", orientation_speedup);
  recorder.set_metric("liveness_cold_ms", liveness_cold_ms);
  recorder.set_metric("liveness_warm_ms", liveness_warm_ms);
  recorder.set_metric("liveness_speedup", liveness_speedup);
  recorder.set_metric("plan_cache_hits",
                      static_cast<double>(stats_after.hits - stats_before.hits));
  recorder.set_metric("plan_cache_misses",
                      static_cast<double>(stats_after.misses - stats_before.misses));

  if (orientation_cold != orientation_warm || liveness_cold != liveness_warm) {
    std::fprintf(stderr,
                 "bench_runtime: cold and warm features are NOT bit-identical — "
                 "the plan cache / workspace changed scoring results\n");
    return false;
  }
  bench::print_note("  cold and warm features are bit-identical");
  return true;
}

/// Warm orientation scoring swept across every SIMD dispatch level the
/// host supports, enforcing the numerical contract of the kernel layer:
/// features bit-identical to the scalar reference (so the verdict is too)
/// at every level. Returns false when the contract breaks.
bool run_simd_level_record() {
  const int iters = env_int("HEADTALK_RUNTIME_BENCH_ITERS", 10);
  const core::OrientationFeatureExtractor extractor;
  auto& classifier = trained_orientation();
  auto& recorder = bench::PerfRecorder::instance();

  const dsp::simd::Level original = dsp::simd::active_level();
  bench::print_note("\nSIMD dispatch sweep (warm orientation scoring):");

  dsp::simd::set_level(dsp::simd::Level::kScalar);
  core::ScoringWorkspace reference_workspace;
  const auto reference = extractor.extract(capture(), &reference_workspace);
  const int reference_verdict = classifier.predict(reference);

  bool ok = true;
  double max_delta = 0.0;
  const int max_level = static_cast<int>(dsp::simd::max_supported_level());
  for (int l = 0; l <= max_level; ++l) {
    const auto level = static_cast<dsp::simd::Level>(l);
    dsp::simd::set_level(level);
    core::ScoringWorkspace workspace;
    const auto features = extractor.extract(capture(), &workspace);
    const double warm_ms = time_ms_per_iter(iters, [&] {
      benchmark::DoNotOptimize(extractor.extract(capture(), &workspace));
    });
    bool identical = features.size() == reference.size();
    double level_delta = 0.0;
    for (std::size_t k = 0; k < features.size(); ++k) {
      identical = identical && std::bit_cast<std::uint64_t>(features[k]) ==
                                   std::bit_cast<std::uint64_t>(reference[k]);
      const double scale = std::max(1.0, std::abs(reference[k]));
      level_delta = std::max(level_delta, std::abs(features[k] - reference[k]) / scale);
    }
    max_delta = std::max(max_delta, level_delta);
    const int verdict = classifier.predict(features);
    const char* name = dsp::simd::level_name(level);
    std::printf("  %-6s warm %8.2f ms  max feature delta %.3g  verdict %s\n",
                name, warm_ms, level_delta,
                verdict == reference_verdict ? "identical" : "DIFFERS");
    recorder.set_metric(std::string("orientation_warm_") + name + "_ms", warm_ms);
    if (!identical || verdict != reference_verdict) ok = false;
  }
  dsp::simd::set_level(original);

  recorder.add_samples(static_cast<std::size_t>((max_level + 1) * (iters + 1) + 1));
  recorder.set_metric("simd_level", static_cast<double>(static_cast<int>(original)));
  recorder.set_metric("simd_max_feature_delta", max_delta);

  if (!ok) {
    std::fprintf(stderr,
                 "bench_runtime: SIMD levels do not give bit-identical features "
                 "or flipped a verdict\n");
  } else {
    bench::print_note("  all levels bit-identical with identical verdicts");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  bench::print_title("runtime",
                     "§IV-B15 stage runtime + scoring-engine warm-up (plan cache)");

  const bool deterministic = run_plan_cache_record() && run_simd_level_record();

  // The bench-smoke ctest sets this: the stage benchmarks repeat each stage
  // until statistically stable, far too slow for a smoke gate.
  if (env_int("HEADTALK_RUNTIME_SKIP_GBENCH", 0) == 0) {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return deterministic ? 0 : 1;
}
