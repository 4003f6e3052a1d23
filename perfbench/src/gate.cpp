// Correctness gate: every served verdict against in-process scoring of the
// same float32 samples under the same follow-up/session (and tenant) state.
//
//   whole utterances  decision, live, facing, via_open_session and both
//                     scores bit-identical to HeadTalkPipeline::score_capture;
//                     on AUTH'd connections the policy fields too, against
//                     an in-process TenantService over the same store.
//   streams           the STREAM_DECISIONs bit-identical to an in-process
//                     StreamingDetector fed the same chunks; every fully
//                     sent truth utterance overlapped by a segment
//                     (segmentation recall 1.0) whose verdict equals scoring
//                     the truth span pre-segmented.
//   counters          the daemon's pipeline.decision.* counters sum to the
//                     decisions the client received.
#include <cstring>
#include <sstream>

#include "core/scoring_workspace.h"
#include "perfbench.h"
#include "stream/endpointer.h"
#include "stream/streaming_detector.h"
#include "tenant/service.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_verdict(const serve::DecisionFrame& served, const core::PipelineResult& ref) {
  return served.decision == static_cast<std::uint8_t>(ref.decision) &&
         served.live == ref.live && served.facing == ref.facing &&
         served.via_open_session == ref.via_open_session &&
         same_bits(served.liveness_score, ref.liveness_score) &&
         same_bits(served.orientation_score, ref.orientation_score);
}

struct Reference {
  core::PipelineResult result;
  core::FeatureCapture features;
};

class Gate {
 public:
  Gate(const Options& options, const Inputs& inputs, const core::HeadTalkPipeline& pipeline,
       const LoadResult& load)
      : options_(options), inputs_(inputs), pipeline_(pipeline), load_(load) {}

  GateResult run(const std::map<std::string, std::uint64_t>& counters) {
    check_requests();
    if (options_.workload == Workload::kStreamPaced) check_streams();
    check_counters(counters);
    return std::move(result_);
  }

 private:
  void note(const std::string& text) {
    if (result_.notes.size() < 5) result_.notes.push_back(text);
  }

  /// score_capture for every (utterance, followup, session_open) the load
  /// could have produced, computed in parallel up front.
  void precompute() {
    const std::size_t n = inputs_.utterances.size();
    references_.resize(n * 4);
    util::parallel_for(n * 4, static_cast<unsigned>(options_.connections), [&](std::size_t i) {
      const std::size_t u = i / 4;
      const bool followup = (i & 2) != 0;
      const bool session_open = (i & 1) != 0;
      core::ScoringWorkspace workspace;
      Reference& ref = references_[i];
      ref.result = pipeline_.score_capture(inputs_.utterances[u].capture,
                                           core::VaMode::kHeadTalk, followup, session_open,
                                           &workspace, &ref.features);
    });
  }

  const Reference& reference(std::size_t u, bool followup, bool session_open) const {
    return references_[u * 4 + (followup ? 2 : 0) + (session_open ? 1 : 0)];
  }

  void check_requests() {
    precompute();
    std::unique_ptr<tenant::TenantService> tenants;
    if (options_.workload == Workload::kUtteranceClosed) {
      tenants = std::make_unique<tenant::TenantService>(inputs_.store_dir);
    }
    std::vector<char> session_open(options_.connections, 0);
    for (const Request& request : load_.requests) {
      ++result_.attempted;
      if (!request.answered) continue;  // counted as an error or abandoned
      char& open = session_open[request.connection];
      const Reference& ref = reference(request.utterance, request.followup, open != 0);
      const auto& served = request.decision;
      bool ok = same_verdict(served, ref.result);
      bool allowed = ref.result.decision == core::Decision::kAccepted;
      if (tenants) {
        const std::string& tenant =
            inputs_.tenants[request.connection % inputs_.tenants.size()];
        const auto policy = tenants->decide(tenant, ref.result, ref.features);
        allowed = policy.allowed;
        ok = ok && served.policy_applied &&
             served.policy_reason == static_cast<std::uint8_t>(policy.reason) &&
             same_bits(served.match_score, policy.match_score);
      } else {
        ok = ok && !served.policy_applied;
      }
      ok = ok && served.policy_allowed == allowed;
      open = ref.result.session_open_after && allowed;
      if (!ok) {
        ++result_.mismatches;
        std::ostringstream text;
        text << "connection " << request.connection << " utterance " << request.utterance
             << (request.followup ? " (follow-up)" : "") << ": served decision "
             << int(served.decision) << " scores " << served.liveness_score << "/"
             << served.orientation_score << ", in-process "
             << int(static_cast<std::uint8_t>(ref.result.decision)) << " "
             << ref.result.liveness_score << "/" << ref.result.orientation_score;
        note(text.str());
      }
    }
  }

  void check_streams() {
    const stream::EndpointerConfig endpoint{};
    std::vector<std::vector<stream::DecisionEvent>> replays(load_.streams.size());
    util::parallel_for(load_.streams.size(), static_cast<unsigned>(options_.connections),
                       [&](std::size_t c) {
      const StreamConnection& sc = load_.streams[c];
      const Scene& scene = inputs_.scenes[sc.scene];
      const std::size_t channels = scene.audio.channel_count();
      const std::size_t per_loop = scene.audio.frames() / sc.vad_frame_length;
      core::ScoringWorkspace workspace;
      stream::StreamingDetector detector(pipeline_, channels, scene.audio.sample_rate());
      detector.set_workspace(&workspace);
      auto& out = replays[c];
      for (std::size_t k = 0; k < sc.chunks_sent; ++k) {
        const std::size_t offset = (k % per_loop) * sc.vad_frame_length * channels;
        auto events = detector.push_interleaved(std::span<const float>(
            scene.interleaved.data() + offset, sc.vad_frame_length * channels));
        out.insert(out.end(), events.begin(), events.end());
      }
      auto tail = detector.flush();
      out.insert(out.end(), tail.begin(), tail.end());
    });

    // Pre-segmented verdicts of every truth utterance (followup=false, so
    // the carried session flag cannot change them).
    std::vector<std::vector<core::Decision>> presegmented(inputs_.scenes.size());
    for (std::size_t s = 0; s < inputs_.scenes.size(); ++s) {
      const Scene& scene = inputs_.scenes[s];
      presegmented[s].resize(scene.truth.size());
      util::parallel_for(scene.truth.size(), static_cast<unsigned>(options_.connections),
                         [&](std::size_t u) {
        core::ScoringWorkspace workspace;
        presegmented[s][u] = pipeline_
                                 .score_capture(truth_span(scene, scene.truth[u]),
                                                core::VaMode::kHeadTalk, false, false,
                                                &workspace)
                                 .decision;
      });
    }

    std::size_t expected = 0;
    for (std::size_t c = 0; c < load_.streams.size(); ++c) {
      const StreamConnection& sc = load_.streams[c];
      std::vector<const StreamEvent*> served;
      for (const auto& event : load_.events) {
        if (event.connection == c) served.push_back(&event);
      }
      const auto& replay = replays[c];
      if (!sc.summary_received || served.size() != replay.size()) {
        ++result_.mismatches;
        note("stream " + std::to_string(c) + ": served " + std::to_string(served.size()) +
             " decisions, in-process " + std::to_string(replay.size()));
      }
      for (std::size_t i = 0; i < std::min(served.size(), replay.size()); ++i) {
        const auto& frame = served[i]->frame;
        const auto& ref = replay[i];
        if (!same_verdict(frame.decision, ref.result) ||
            !same_bits(frame.begin_seconds, ref.begin_seconds) ||
            !same_bits(frame.end_seconds, ref.end_seconds) ||
            frame.force_closed != ref.force_closed) {
          ++result_.mismatches;
          note("stream " + std::to_string(c) + " segment " + std::to_string(i) +
               " differs from the in-process detector");
        }
      }

      // Segmentation recall and verdicts over every truth utterance whose
      // hangover was fully streamed.
      const Scene& scene = inputs_.scenes[sc.scene];
      const double fs = scene.audio.sample_rate();
      const double frame_s = static_cast<double>(sc.vad_frame_length) / fs;
      const std::size_t per_loop = scene.audio.frames() / sc.vad_frame_length;
      const double loop_s = static_cast<double>(per_loop) * frame_s;
      const double sent_s = static_cast<double>(sc.chunks_sent) * frame_s;
      const double guard_s = static_cast<double>(endpoint.hangover_frames + 2) * frame_s;
      for (std::size_t loop = 0; static_cast<double>(loop) * loop_s < sent_s; ++loop) {
        for (std::size_t u = 0; u < scene.truth.size(); ++u) {
          const double begin = static_cast<double>(loop) * loop_s + scene.truth[u].begin_seconds;
          const double end = static_cast<double>(loop) * loop_s + scene.truth[u].end_seconds;
          if (end + guard_s > sent_s) continue;
          ++expected;
          const StreamEvent* match = nullptr;
          for (const auto* event : served) {
            if (overlaps(event->frame.begin_seconds, event->frame.end_seconds, begin, end)) {
              match = event;
              break;
            }
          }
          if (match == nullptr) {
            ++result_.missed_utterances;
            note("stream " + std::to_string(c) + ": no segment for the utterance at " +
                 std::to_string(begin) + " s");
          } else if (match->frame.decision.decision !=
                     static_cast<std::uint8_t>(presegmented[sc.scene][u])) {
            ++result_.mismatches;
            note("stream " + std::to_string(c) + ": streamed verdict at " +
                 std::to_string(begin) + " s differs from the pre-segmented one");
          }
        }
      }
    }
    result_.attempted += expected;
    result_.segmentation_recall =
        expected == 0 ? 0.0
                      : static_cast<double>(expected - result_.missed_utterances) /
                            static_cast<double>(expected);
  }

  void check_counters(const std::map<std::string, std::uint64_t>& counters) {
    std::uint64_t served = 0;
    for (const auto& [name, value] : counters) {
      if (name.rfind("pipeline.decision.", 0) == 0) served += value;
    }
    std::uint64_t seen = load_.events.size();
    for (const auto& request : load_.requests) seen += request.answered ? 1 : 0;
    const auto errors = counters.find("serve.session.errors");
    result_.counters_match =
        served == seen && (errors == counters.end() || errors->second == 0);
    if (!result_.counters_match) {
      note("daemon counted " + std::to_string(served) + " decisions, client saw " +
           std::to_string(seen));
    }
  }

  const Options& options_;
  const Inputs& inputs_;
  const core::HeadTalkPipeline& pipeline_;
  const LoadResult& load_;
  std::vector<Reference> references_;
  GateResult result_;
};

}  // namespace

GateResult check_load(const Options& options, const Inputs& inputs,
                      const core::HeadTalkPipeline& pipeline, const LoadResult& load,
                      const std::map<std::string, std::uint64_t>& daemon_counters) {
  return Gate(options, inputs, pipeline, load).run(daemon_counters);
}

}  // namespace perfbench
