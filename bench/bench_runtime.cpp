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
#include <span>
#include <stdexcept>

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
#include "serve/protocol.h"
#include "serve/session.h"
#include "sim/collector.h"
#include "sim/stream_scene.h"
#include "stream/vad.h"

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
  // Capture -> features -> network score (the paper's 42 ms stage). As in
  // serving, every channel is band-passed for the trim envelope; the
  // features come from channel 0.
  core::LivenessFeatureExtractor extractor;
  auto& detector = trained_liveness();
  for (auto _ : state) {
    const auto features = extractor.extract(capture());
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

void BM_AntiAlias(benchmark::State& state) {
  // The liveness stage's anti-alias low-pass (10th order, 5 sections) on
  // channel 0 of the capture, in the operator's 960-frame calls: through
  // a one-channel MultichannelBiquadCascade (lanes:1, the sections across
  // vector lanes at the active level) and as one BiquadCascade (lanes:0).
  const auto x = capture().channel(0).samples();
  const dsp::BiquadCascade design =
      dsp::butterworth_lowpass(10, 0.45 * 16000.0, capture().sample_rate());
  constexpr std::size_t kCall = 960;
  std::vector<audio::Sample> out(x.size());
  if (state.range(0) == 0) {
    dsp::BiquadCascade cascade = design;
    for (auto _ : state) {
      std::copy(x.begin(), x.end(), out.begin());
      for (std::size_t i = 0; i < out.size(); i += kCall) {
        cascade.process(std::span(out).subspan(i, std::min(kCall, out.size() - i)));
      }
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
    state.SetLabel("BiquadCascade");
  } else {
    dsp::MultichannelBiquadCascade lanes;
    lanes.reset(design, 1);
    for (auto _ : state) {
      for (std::size_t i = 0; i < x.size(); i += kCall) {
        const audio::Sample* in = x.data() + i;
        audio::Sample* dst = out.data() + i;
        lanes.process(&in, &dst, std::min(kCall, x.size() - i));
      }
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
    state.SetLabel(std::string("simd biquad_cascade, ") + dsp::simd::kernels().name);
  }
}
BENCHMARK(BM_AntiAlias)->ArgName("lanes")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The operator's per-block transforms on one 20 ms block of the capture
// (D2: 4 channels, 960 samples, 1024-point block FFT, lag window ±13).
// lanes:0 runs one transform per call, the layout the lane kernels
// replaced; lanes:1 runs the lane path the operator uses (float32, 8 lanes
// per AVX2 register); lanes:2 is the float64 4-lane path it replaced,
// kept here as the reference for lanes:1.
constexpr std::size_t kBlockLen = 960;
constexpr std::size_t kBlockFft = 1024;
constexpr int kBlockMaxLag = 13;

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

const char* lane_type_label(std::size_t lanes_arg) {
  return lanes_arg == 1 ? "float32 x8" : "float64 x4";
}

/// The block STFT of every channel, kLanes<T> channels per call.
template <class T>
void block_spectra(const std::vector<const audio::Sample*>& channels,
                   std::vector<dsp::BasicLaneSpectrum<T>>& spectra,
                   dsp::BasicLaneScratch<T>& scratch) {
  constexpr std::size_t kLanes = dsp::simd::kLanes<T>;
  spectra.resize((channels.size() + kLanes - 1) / kLanes);
  for (std::size_t g = 0; g < spectra.size(); ++g) {
    const std::size_t count = std::min(kLanes, channels.size() - g * kLanes);
    dsp::rfft_lanes_into<T>({channels.data() + g * kLanes, count}, kBlockLen, kBlockFft,
                            spectra[g], scratch);
  }
}

template <class T>
void block_stft_lanes(benchmark::State& state) {
  const auto channels = block_channels();
  std::vector<dsp::BasicLaneSpectrum<T>> spectra;
  dsp::BasicLaneScratch<T> scratch;
  for (auto _ : state) {
    block_spectra(channels, spectra, scratch);
    benchmark::DoNotOptimize(spectra.front().re.data());
    benchmark::ClobberMemory();
  }
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
    return;
  }
  if (state.range(0) == 1) {
    block_stft_lanes<float>(state);
  } else {
    block_stft_lanes<double>(state);
  }
  state.SetLabel(std::string("rfft_lanes_into ") + lane_type_label(state.range(0)) + ", " +
                 dsp::simd::kernels().name);
}
BENCHMARK(BM_BlockStft)->ArgName("lanes")->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

template <class T>
void pair_gcc_lanes(benchmark::State& state) {
  constexpr std::size_t kLanes = dsp::simd::kLanes<T>;
  const auto channels = block_channels();
  const auto pairs = channel_pairs(channels.size());
  std::vector<dsp::BasicLaneSpectrum<T>> spectra;
  dsp::BasicLaneScratch<T> scratch;
  block_spectra(channels, spectra, scratch);
  dsp::BasicLaneSpectrum<T> x, y, cross;
  cross.fft_size = kBlockFft;
  cross.lanes = kLanes;
  cross.re.resize((kBlockFft / 2 + 1) * kLanes);
  cross.im.resize((kBlockFft / 2 + 1) * kLanes);
  std::vector<double> windows;
  const auto& kernels = dsp::simd::kernels().lanes<T>();
  for (auto _ : state) {
    for (std::size_t first = 0; first < pairs.size(); first += kLanes) {
      const dsp::BasicLaneSpectrum<T>* x_from[kLanes] = {};
      const dsp::BasicLaneSpectrum<T>* y_from[kLanes] = {};
      std::size_t x_lane[kLanes] = {}, y_lane[kLanes] = {};
      for (std::size_t l = 0; l < kLanes && first + l < pairs.size(); ++l) {
        const auto [i, j] = pairs[first + l];
        x_from[l] = &spectra[i / kLanes];
        x_lane[l] = i % kLanes;
        y_from[l] = &spectra[j / kLanes];
        y_lane[l] = j % kLanes;
      }
      const auto xs = dsp::select_lanes(x_from, x_lane, x);
      const auto ys = dsp::select_lanes(y_from, y_lane, y);
      kernels.phat_lanes(xs.re, xs.im, xs.order, xs.width, ys.re, ys.im, ys.order, ys.width,
                         cross.re.data(), cross.im.data(), kBlockFft / 2 + 1, T(1e-12));
      dsp::irfft_lanes_window_into(cross, kBlockMaxLag, windows, scratch);
      benchmark::DoNotOptimize(windows.data());
    }
    benchmark::ClobberMemory();
  }
}

void BM_PairGcc(benchmark::State& state) {
  // PHAT cross spectrum and pruned inverse over the lag window for every
  // microphone pair, from the block spectra (coherence sums excluded: the
  // per-transform path has no counterpart). lanes:0 is
  // gcc_phat_from_spectra_into per pair: a plain-loop cross spectrum and
  // the one-signal lag-window inverse.
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
    return;
  }
  if (state.range(0) == 1) {
    pair_gcc_lanes<float>(state);
  } else {
    pair_gcc_lanes<double>(state);
  }
  state.SetLabel(std::string("phat_lanes + irfft_lanes_window_into ") +
                 lane_type_label(state.range(0)) + ", " + dsp::simd::kernels().name);
}
BENCHMARK(BM_PairGcc)->ArgName("lanes")->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

template <class T>
void directivity_lanes(benchmark::State& state, const std::vector<const audio::Sample*>& block,
                       std::size_t block_len, std::size_t bins, double* magnitudes) {
  const audio::MultiBuffer& x = capture();
  const std::size_t channels = block.size();
  dsp::FirDecimator decimator = core::directivity_decimator(x.sample_rate(), channels, 4000.0);
  const std::size_t fft = 4096 / decimator.step();
  std::vector<audio::Sample> ring(fft, 0.0);
  std::size_t decimated = 0;
  dsp::BasicLaneScratch<T> scratch;
  const auto& accumulate = dsp::simd::kernels().accumulate;
  for (auto _ : state) {
    double* mix = decimator.append(block_len);
    std::copy_n(block[0], block_len, mix);
    for (std::size_t c = 1; c < channels; ++c) accumulate(mix, block[c], block_len);
    for (std::size_t ready = decimator.ready(); ready > 0;) {
      const std::size_t at = decimated % fft;
      const std::size_t take = std::min(ready, fft - at);
      decimator.emit(ring.data() + at, take);
      decimated += take;
      ready -= take;
    }
    const std::span<const audio::Sample> held(ring);
    const std::size_t oldest = decimated % fft;
    dsp::rfft_magnitudes_head<T>(held.subspan(oldest), held.first(oldest), fft, bins,
                                 magnitudes, scratch);
    benchmark::DoNotOptimize(magnitudes);
    benchmark::ClobberMemory();
  }
}

void BM_DirectivityFft(benchmark::State& state) {
  // The directivity work of one 20 ms block at 48 kHz: mix the 4 channels
  // down and take the magnitudes of the 344 bins (0–4 kHz at 11.7 Hz) the
  // HLBR and banded features read, over the ~85 ms window.
  //   lanes:0 — the full-rate reference: mixdown into a 4096-sample ring
  //             (per-sample modulo and divide), the 4096-point
  //             rfft_half_into of the window and std::abs per bin;
  //   lanes:1 — the operator's path: channel-major mixdown, its 49-tap
  //             decimator by 4 (fir_decimate) into a 1024-sample ring at
  //             12 kHz, and the 1024-point rfft_magnitudes_head in float32
  //             (one signal as eight parts);
  //   lanes:2 — the same in float64 (four parts), the path lanes:1 replaced.
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
    return;
  }
  if (state.range(0) == 1) {
    directivity_lanes<float>(state, block, kBlock, kBins, magnitudes.data());
  } else {
    directivity_lanes<double>(state, block, kBlock, kBins, magnitudes.data());
  }
  state.SetLabel(std::string("fir_decimate x4 + 1024-point rfft_magnitudes_head ") +
                 lane_type_label(state.range(0)) + ", " + dsp::simd::kernels().name);
}
BENCHMARK(BM_DirectivityFft)
    ->ArgName("lanes")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

// The passes over raw samples in front of the operator's transforms.
//
// BM_DecodeChunk: one AUDIO_CHUNK of 4 channels × 4800 frames (100 ms at
// 48 kHz) decoded into per-channel doubles, as Session feeds the operator.
//   kernel:0 — the per-sample decoder the bulk kernel replaced: each sample
//              assembled from its bytes, std::isfinite with a throw in the
//              loop, and a store per sample;
//   kernel:1 — serve::decode_audio_chunk (the decode_f32 kernel): the
//              whole-payload check, then the deinterleave.
// BM_BlockEnvelope: the trim envelope's Σx² of one 20 ms block (4 × 960
// band-passed samples): kernel:0 one dependent add chain, kernel:1 the
// sum_squares lane reduction per channel.
constexpr std::size_t kChunkChannels = 4;
constexpr std::size_t kChunkFrames = 4800;

template <class Put>
void per_sample_decode(const std::uint8_t* p, std::size_t frames, std::size_t channels,
                       Put&& put) {
  for (std::size_t f = 0; f < frames; ++f) {
    for (std::size_t c = 0; c < channels; ++c, p += sizeof(float)) {
      const std::uint32_t bits = std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
                                 std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
      const float sample = std::bit_cast<float>(bits);
      if (!std::isfinite(sample)) throw std::runtime_error("non-finite sample");
      put(f, c, sample);
    }
  }
}

void BM_DecodeChunk(benchmark::State& state) {
  const audio::MultiBuffer& x = capture();
  std::vector<float> interleaved(kChunkFrames * kChunkChannels);
  for (std::size_t f = 0; f < kChunkFrames; ++f) {
    for (std::size_t c = 0; c < kChunkChannels; ++c) {
      interleaved[f * kChunkChannels + c] = static_cast<float>(x.channel(c).samples()[f]);
    }
  }
  serve::Frame frame;
  frame.type = serve::FrameType::kAudioChunk;
  const auto bytes = serve::encode_audio_chunk(interleaved, kChunkChannels);
  frame.payload.assign(bytes.begin() + serve::kFrameHeaderBytes, bytes.end());
  std::vector<std::vector<double>> channels(kChunkChannels,
                                            std::vector<double>(kChunkFrames));
  double* out[kChunkChannels];
  for (std::size_t c = 0; c < kChunkChannels; ++c) out[c] = channels[c].data();
  if (state.range(0) == 0) {
    const std::uint8_t* samples = frame.payload.data() + sizeof(std::uint32_t);
    for (auto _ : state) {
      per_sample_decode(samples, kChunkFrames, kChunkChannels,
                        [&out](std::size_t f, std::size_t c, float sample) {
                          out[c][f] = static_cast<double>(sample);
                        });
      benchmark::DoNotOptimize(out[0]);
      benchmark::ClobberMemory();
    }
    state.SetLabel("per-sample decode");
  } else {
    for (auto _ : state) {
      serve::decode_audio_chunk(frame, kChunkChannels, out, nullptr);
      benchmark::DoNotOptimize(out[0]);
      benchmark::ClobberMemory();
    }
    state.SetLabel(std::string("decode_audio_chunk, ") + dsp::simd::kernels().name);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kChunkFrames * kChunkChannels));
}
BENCHMARK(BM_DecodeChunk)
    ->ArgName("kernel")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_BlockEnvelope(benchmark::State& state) {
  const auto channels = block_channels();
  double envelope = 0.0;
  if (state.range(0) == 0) {
    for (auto _ : state) {
      double acc = 0.0;
      for (const audio::Sample* samples : channels) {
        for (std::size_t i = 0; i < kBlockLen; ++i) acc += samples[i] * samples[i];
      }
      envelope = acc;
      benchmark::DoNotOptimize(envelope);
    }
    state.SetLabel("one add chain");
  } else {
    const auto& sum_squares = dsp::simd::kernels().sum_squares;
    for (auto _ : state) {
      double acc = 0.0;
      for (const audio::Sample* samples : channels) {
        acc += sum_squares(samples, kBlockLen);
      }
      envelope = acc;
      benchmark::DoNotOptimize(envelope);
    }
    state.SetLabel(std::string("sum_squares, ") + dsp::simd::kernels().name);
  }
}
BENCHMARK(BM_BlockEnvelope)
    ->ArgName("kernel")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// The one-signal transforms of dsp/fft.h, run as one signal in up to
// four float64 parts of the lane path: the liveness STFT frame (512
// points) and the VAD flatness frame (1024 points) forward, as a half
// spectrum (rfft_half_into) and as magnitudes (magnitude_spectrum_into),
// and the room simulator's convolution inverse at 65536 points (a 0.8 s
// capture plus its RIR at 48 kHz, irfft_half_into).
std::span<const audio::Sample> one_signal(std::size_t points) {
  const auto x = capture().channel(0).samples();
  const std::size_t first = std::min(x.size() / 2, x.size() - std::min(x.size(), points));
  return x.subspan(first, std::min(points, x.size()));
}

void BM_RfftHalf(benchmark::State& state) {
  const auto points = static_cast<std::size_t>(state.range(0));
  const auto x = one_signal(points);
  dsp::HalfSpectrum spectrum;
  dsp::FftScratch scratch;
  for (auto _ : state) {
    dsp::rfft_half_into(x, points, spectrum, scratch);
    benchmark::DoNotOptimize(spectrum.bins.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string("rfft_half_into, ") + dsp::simd::kernels().name);
}
BENCHMARK(BM_RfftHalf)->ArgName("points")->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_MagnitudeSpectrum(benchmark::State& state) {
  const auto points = static_cast<std::size_t>(state.range(0));
  const auto x = one_signal(points);
  std::vector<double> magnitudes;
  dsp::FftScratch scratch;
  for (auto _ : state) {
    dsp::magnitude_spectrum_into(x, points, magnitudes, scratch);
    benchmark::DoNotOptimize(magnitudes.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string("magnitude_spectrum_into, ") + dsp::simd::kernels().name);
}
BENCHMARK(BM_MagnitudeSpectrum)
    ->ArgName("points")
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_IrfftHalf(benchmark::State& state) {
  const auto points = static_cast<std::size_t>(state.range(0));
  const dsp::HalfSpectrum spectrum = dsp::rfft_half(one_signal(points), points);
  std::vector<audio::Sample> out;
  dsp::FftScratch scratch;
  for (auto _ : state) {
    dsp::irfft_half_into(spectrum, 0, out, scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string("irfft_half_into, ") + dsp::simd::kernels().name);
}
BENCHMARK(BM_IrfftHalf)->ArgName("points")->Arg(65536)->Unit(benchmark::kMicrosecond);

// The stream path per 20 ms of 4-channel audio at 48 kHz.
// BM_StreamChunk: serve::Session::on_bytes on one AUDIO_CHUNK of a
// streaming connection (STREAM_START sent), looping over a rendered
// two-utterance scene: wire parse, decode, VAD, endpointing, the
// operator's per-frame feed and, on the chunks that close a segment, the
// finalize and the STREAM_DECISION. BM_VadFrame: stream::Vad on one
// 960-sample speech frame (energy, then the flatness spectrum).
const sim::StreamScene& stream_scene() {
  static const sim::StreamScene instance = [] {
    sim::CollectorConfig cfg;
    cfg.cache_enabled = false;
    sim::Collector collector(cfg);
    sim::SampleSpec facing;
    facing.location = {sim::GridRadial::kMiddle, 3.0};
    sim::SampleSpec away = facing;
    away.angle_deg = 120.0;
    return sim::render_stream_scene(collector, {facing, away});
  }();
  return instance;
}

void BM_StreamChunk(benchmark::State& state) {
  const audio::MultiBuffer& audio = stream_scene().audio;
  const std::size_t channels = audio.channel_count();
  const double fs = audio.sample_rate();
  const auto frame = static_cast<std::size_t>(fs / 50.0);
  std::vector<std::vector<std::uint8_t>> chunks(audio.frames() / frame);
  std::vector<float> interleaved(frame * channels);
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    for (std::size_t f = 0; f < frame; ++f) {
      for (std::size_t c = 0; c < channels; ++c) {
        interleaved[f * channels + c] =
            static_cast<float>(audio.channel(c).samples()[k * frame + f]);
      }
    }
    chunks[k] = serve::encode_audio_chunk(interleaved, static_cast<std::uint16_t>(channels));
  }
  serve::Session session(pipeline(), serve::SessionLimits{});
  core::ScoringWorkspace workspace;
  session.set_workspace(&workspace);
  serve::Hello hello;
  hello.sample_rate_hz = static_cast<std::uint32_t>(fs);
  hello.channels = static_cast<std::uint16_t>(channels);
  for (const auto& bytes : {serve::encode_hello(hello), serve::encode_stream_start()}) {
    session.on_bytes(bytes.data(), bytes.size());
  }
  (void)session.take_output();
  std::size_t k = 0;
  for (auto _ : state) {
    const auto& bytes = chunks[k];
    if (!session.on_bytes(bytes.data(), bytes.size())) {
      state.SkipWithError("the session failed");
      break;
    }
    benchmark::DoNotOptimize(session.take_output());
    k = k + 1 == chunks.size() ? 0 : k + 1;
  }
  state.SetLabel(std::to_string(session.decisions_sent()) + " decisions, " +
                 dsp::simd::kernels().name);
}
BENCHMARK(BM_StreamChunk)->Unit(benchmark::kMicrosecond);

void BM_VadFrame(benchmark::State& state) {
  const auto x = one_signal(960);
  stream::Vad vad(stream::VadConfig{}, capture().sample_rate());
  std::vector<stream::VadFrame> frames;
  frames.reserve(1);
  for (auto _ : state) {
    frames.clear();
    vad.push(x, frames);
    benchmark::DoNotOptimize(frames.data());
  }
  state.SetLabel(frames.empty() || !frames[0].has_flatness() ? "no flatness measured"
                                                             : "flatness measured");
}
BENCHMARK(BM_VadFrame)->Unit(benchmark::kMicrosecond);

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
  const auto liveness_cold = liveness_extractor.extract(capture());
  const double liveness_cold_ms = time_ms_per_iter(iters, [&] {
    benchmark::DoNotOptimize(liveness_extractor.extract(capture()));
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
  const auto liveness_warm = liveness_extractor.extract(capture(), &workspace);
  const double liveness_warm_ms = time_ms_per_iter(iters, [&] {
    benchmark::DoNotOptimize(liveness_extractor.extract(capture(), &workspace));
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
