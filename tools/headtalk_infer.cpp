// headtalk_infer — runs trained HeadTalk models on WAV captures.
//
//   headtalk_infer --models models --wav corpus/lab_D2_live_M3_a+000_s0_r0_u0.wav
//   headtalk_infer --models models --wav a.wav,b.wav,c.wav --jobs 4
//
// Prints, per capture, the liveness score, the orientation verdict, and the
// decision the pipeline takes in HeadTalk mode — scored through the same
// HeadTalkPipeline::score_capture path as headtalk_serve. Multiple captures
// (comma-separated) are scored in parallel and reported in input order.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "audio/wav_io.h"
#include "cli/args.h"
#include "cli/names.h"
#include "core/liveness_detector.h"
#include "core/orientation_classifier.h"
#include "core/pipeline.h"
#include "core/scoring_workspace.h"
#include "ml/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/streaming_detector.h"
#include "tenant/policy.h"
#include "tenant/store.h"
#include "util/thread_pool.h"

using namespace headtalk;

namespace {

std::vector<std::filesystem::path> parse_wavs(const std::string& text) {
  std::vector<std::filesystem::path> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.emplace_back(item);
  }
  if (out.empty()) throw cli::ArgsError("--wav: no capture given");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("headtalk_infer", "classify wake-word WAVs with trained models");
  args.add_flag("--models", "directory containing orientation.htm / liveness.htm");
  args.add_flag("--wav", "capture(s) to classify (comma-separated for a batch)");
  args.add_flag("--device", "device the capture came from (aperture): D1|D2|D3", "D2");
  args.add_switch("--stream",
                  "treat the WAVs as one continuous stream: VAD + endpointing "
                  "find the utterances, one decision each");
  args.add_flag("--chunk-ms", "streaming push granularity (milliseconds)", "100");
  args.add_flag("--store", "tenant model store directory (with --tenant)", "");
  args.add_flag("--tenant",
                "score against this tenant's profile + policy (needs --store)", "");
  cli::add_jobs_flag(args);
  cli::add_obs_flags(args);

  try {
    args.parse(argc, argv);
    if (args.help_requested()) {
      std::fputs(args.usage().c_str(), stdout);
      return 0;
    }
    cli::ObsSession obs_session(args);

    const std::filesystem::path model_dir = args.get("--models");
    auto orientation =
        ml::load_model_file<core::OrientationClassifier>(model_dir / "orientation.htm");
    auto liveness =
        ml::load_model_file<core::LivenessDetector>(model_dir / "liveness.htm");

    const auto wavs = parse_wavs(args.get("--wav"));
    const auto device = room::DeviceSpec::get(cli::parse_device(args.get("--device")));

    // Optional tenant-scoped scoring: resolve the profile once, match each
    // capture's features against it, and run the same policy engine the
    // daemon uses (locally, so no server is needed to test an enrollment).
    std::shared_ptr<const tenant::SpeakerProfile> profile;
    const std::string tenant_id = args.get("--tenant");
    if (!tenant_id.empty()) {
      if (args.get("--store").empty()) throw cli::ArgsError("--tenant needs --store");
      if (args.get_switch("--stream")) {
        throw cli::ArgsError("--tenant is not supported with --stream");
      }
      tenant::ModelStore store(args.get("--store"));
      profile = store.lookup(tenant_id);
      if (!profile) {
        throw std::runtime_error("tenant '" + tenant_id + "' is not enrolled in " +
                                 args.get("--store"));
      }
    }

    // One resident pipeline for both modes, configured as headtalk_serve
    // configures it, so a capture scores here exactly as the daemon would.
    core::PipelineConfig pipeline_config;
    pipeline_config.orientation_features.max_mic_distance_m =
        device.max_pair_distance(device.default_channels);
    const core::HeadTalkPipeline pipeline(std::move(orientation), std::move(liveness),
                                          pipeline_config);

    if (args.get_switch("--stream")) {
      // Continuous mode: the same resident-pipeline path headtalk_serve
      // uses, minus the socket — VAD + endpointing segment the stream and
      // each closed segment is scored in place.
      const long chunk_ms = args.get_int("--chunk-ms");
      if (chunk_ms < 1) throw cli::ArgsError("--chunk-ms must be >= 1");
      core::ScoringWorkspace workspace;
      std::unique_ptr<stream::StreamingDetector> detector;
      std::vector<stream::DecisionEvent> events;
      for (const auto& wav : wavs) {
        const auto capture = audio::read_wav(wav);
        if (!detector) {
          detector = std::make_unique<stream::StreamingDetector>(
              pipeline, capture.channel_count(), capture.sample_rate());
          detector->set_workspace(&workspace);
        }
        const auto chunk_frames = static_cast<std::size_t>(
            std::max(1.0, static_cast<double>(chunk_ms) * capture.sample_rate() /
                              1000.0));
        for (std::size_t begin = 0; begin < capture.frames();
             begin += chunk_frames) {
          const std::size_t count = std::min(chunk_frames, capture.frames() - begin);
          audio::MultiBuffer chunk(capture.channel_count(), count,
                                   capture.sample_rate());
          for (std::size_t c = 0; c < capture.channel_count(); ++c) {
            std::copy_n(capture.channel(c).samples().data() + begin, count,
                        chunk.channel(c).samples().data());
          }
          auto closed = detector->push(chunk);
          events.insert(events.end(), closed.begin(), closed.end());
        }
      }
      auto closed = detector->flush();
      events.insert(events.end(), closed.begin(), closed.end());

      for (const auto& event : events) {
        std::printf(
            "[%7.3f .. %7.3f s] %s (liveness %.3f, orientation %+.3f%s, "
            "scored in %.1f ms)\n",
            event.begin_seconds, event.end_seconds,
            std::string(core::decision_name(event.result.decision)).c_str(),
            event.result.liveness_score, event.result.orientation_score,
            event.force_closed ? ", force-closed" : "",
            1000.0 * event.latency_seconds);
      }
      std::printf("stream summary: segments=%zu force_closed=%zu discarded=%zu\n",
                  detector->segments(), detector->force_closed(),
                  detector->discarded());
      return 0;
    }

    // Scoring a capture is independent work against the const pipeline;
    // batches fan out across --jobs workers and reports print in input order.
    tenant::PolicyEngine policy;
    std::vector<std::string> reports(wavs.size());
    static obs::Histogram& capture_seconds =
        obs::Registry::global().histogram("infer.capture_seconds");
    util::parallel_for(wavs.size(), cli::jobs_from(args), [&](std::size_t i) {
      // One workspace per --jobs lane: captures after a lane's first reuse
      // its warm scoring scratch (scores are identical either way).
      thread_local core::ScoringWorkspace workspace;
      obs::Timer timer(&capture_seconds);
      const auto raw = [&] {
        obs::ScopedSpan span("infer.read_wav");
        return audio::read_wav(wavs[i]);
      }();
      // The daemon's scoring path: one operator pass over all channels,
      // then the pipeline's decision ladder (orientation runs only for a
      // live capture).
      core::FeatureCapture features;
      const core::PipelineResult result =
          pipeline.score_capture(raw, core::VaMode::kHeadTalk, /*followup=*/false,
                                 /*session_active=*/false, &workspace, &features);

      char orientation_text[64] = "not checked";
      if (result.orientation_checked) {
        std::snprintf(orientation_text, sizeof orientation_text, "score %+.3f -> %s",
                      result.orientation_score, result.facing ? "facing" : "not facing");
      }
      char text[512];
      std::snprintf(text, sizeof text,
                    "capture: %zu channels, %.0f ms\n"
                    "liveness:    score %.3f -> %s\n"
                    "orientation: %s\n"
                    "headtalk decision: %s\n",
                    raw.channel_count(),
                    1000.0 * static_cast<double>(raw.frames()) / raw.sample_rate(),
                    result.liveness_score, result.live ? "live human" : "mechanical speaker",
                    orientation_text,
                    std::string(core::decision_name(result.decision)).c_str());
      reports[i] = text;

      if (profile) {
        const tenant::PolicyDecision verdict = policy.decide(*profile, result, features);
        std::snprintf(text, sizeof text,
                      "tenant '%s' (%s): match %.3f vs threshold %.3f -> policy %s "
                      "(%s)\n",
                      profile->tenant_id.c_str(),
                      std::string(tenant::policy_rule_name(profile->rule)).c_str(),
                      verdict.match_score, profile->threshold,
                      verdict.allowed ? "ALLOWED" : "rejected",
                      std::string(tenant::policy_reason_name(verdict.reason)).c_str());
        reports[i] += text;
      }
    });

    for (std::size_t i = 0; i < wavs.size(); ++i) {
      if (wavs.size() > 1) std::printf("%s\n", wavs[i].string().c_str());
      std::fputs(reports[i].c_str(), stdout);
      if (wavs.size() > 1 && i + 1 < wavs.size()) std::printf("\n");
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n\n%s", error.what(), args.usage().c_str());
    return 1;
  }
}
