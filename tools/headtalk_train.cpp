// headtalk_train — trains the two HeadTalk detectors from a WAV corpus.
//
// Reads <data>/manifest.tsv (one line per capture:
// `file<TAB>source<TAB>angle<TAB>device`, as written by headtalk_simulate;
// hand-recorded corpora can use the same format), extracts features, trains
// the orientation SVM (Definition-4 facing arcs) and the liveness network,
// and saves both models to the output directory.
//
// With --enroll the tool instead enrolls a speaker into a tenant model
// store: the listed WAVs are run through the same preprocessing + feature
// extractors the scoring pipeline uses, summarized into a SpeakerProfile
// (tenant/enrollment.h), and published atomically into --store:
//
//   headtalk_train --enroll --tenant alice --store store
//                  --wavs a.wav,b.wav,c.wav --policy enrolled_live_facing
//                  --quota 0
//
// (one command line, wrapped here).
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "audio/wav_io.h"
#include "cli/args.h"
#include "cli/names.h"
#include "core/liveness_detector.h"
#include "core/liveness_features.h"
#include "core/orientation_classifier.h"
#include "core/orientation_features.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tenant/enrollment.h"
#include "tenant/store.h"
#include "util/thread_pool.h"

using namespace headtalk;

namespace {

struct ManifestEntry {
  std::filesystem::path file;
  sim::ReplaySource source = sim::ReplaySource::kNone;
  double angle_deg = 0.0;
  room::DeviceId device = room::DeviceId::kD2;
};

std::vector<ManifestEntry> read_manifest(const std::filesystem::path& dir) {
  std::ifstream in(dir / "manifest.tsv");
  if (!in) throw std::runtime_error("cannot read " + (dir / "manifest.tsv").string());
  std::vector<ManifestEntry> entries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::stringstream row(line);
    std::string file, source, angle, device;
    if (!std::getline(row, file, '\t') || !std::getline(row, source, '\t') ||
        !std::getline(row, angle, '\t') || !std::getline(row, device, '\t')) {
      throw std::runtime_error("malformed manifest line: " + line);
    }
    entries.push_back({dir / file, cli::parse_replay(source), std::stod(angle),
                       cli::parse_device(device)});
  }
  if (entries.empty()) throw std::runtime_error("manifest.tsv has no entries");
  return entries;
}

std::vector<std::filesystem::path> split_paths(const std::string& list) {
  std::vector<std::filesystem::path> out;
  std::stringstream stream(list);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.emplace_back(item);
  }
  return out;
}

int run_enroll(const cli::ArgParser& args) {
  const std::string tenant_id = args.get("--tenant");
  const std::filesystem::path store_dir = args.get("--store");
  const auto wav_paths = split_paths(args.get("--wavs"));
  if (wav_paths.empty()) {
    throw cli::ArgsError("--enroll needs --wavs a.wav,b.wav,... (>= 2 captures)");
  }

  tenant::EnrollmentConfig config;
  config.rule = tenant::parse_policy_rule(args.get("--policy"));
  const long quota = args.get_int("--quota");
  if (quota < 0) throw cli::ArgsError("--quota must be >= 0 (0 = unlimited)");
  config.quota_per_minute = static_cast<std::uint32_t>(quota);

  core::PipelineConfig pipeline_config;
  const auto device = room::DeviceSpec::get(cli::parse_device(args.get("--device")));
  pipeline_config.orientation_features.max_mic_distance_m =
      device.max_pair_distance(device.default_channels);

  std::vector<audio::MultiBuffer> captures;
  captures.reserve(wav_paths.size());
  for (const auto& path : wav_paths) captures.push_back(audio::read_wav(path));

  const tenant::SpeakerProfile profile =
      tenant::enroll_profile(pipeline_config, captures, tenant_id, config);
  tenant::ModelStore store(store_dir);
  // Load what's already enrolled first: the manifest rewrite on publish
  // covers the whole snapshot, so skipping this would clobber every
  // previously enrolled tenant.
  (void)store.reload();
  store.publish(profile);
  std::printf(
      "enrolled '%s' from %zu captures into %s — policy %s, quota %u/min, "
      "threshold %.3f, store generation %llu (%zu tenants)\n",
      tenant_id.c_str(), captures.size(), store_dir.string().c_str(),
      std::string(tenant::policy_rule_name(profile.rule)).c_str(),
      profile.quota_per_minute,
      profile.threshold, static_cast<unsigned long long>(store.generation()),
      store.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("headtalk_train", "train HeadTalk detectors from a WAV corpus");
  args.add_flag("--data", "corpus directory containing manifest.tsv", "");
  args.add_flag("--out", "directory to write orientation.htm / liveness.htm", "");
  args.add_switch("--tune-svm", "grid-search the SVM (C, gamma) as in the paper");
  args.add_switch("--enroll", "enroll a speaker into a tenant store instead of training");
  args.add_flag("--tenant", "tenant id to enroll (--enroll)", "");
  args.add_flag("--store", "tenant model store directory (--enroll)", "");
  args.add_flag("--wavs", "comma-separated enrollment WAVs (--enroll)", "");
  args.add_flag("--policy", "policy rule: enrolled_live_facing|live_facing|any",
                "enrolled_live_facing");
  args.add_flag("--quota", "per-minute decision quota, 0 = unlimited (--enroll)", "0");
  args.add_flag("--device", "device the captures come from: D1|D2|D3 (--enroll)", "D2");
  cli::add_jobs_flag(args);
  cli::add_obs_flags(args);

  try {
    args.parse(argc, argv);
    if (args.help_requested()) {
      std::fputs(args.usage().c_str(), stdout);
      return 0;
    }
    cli::ObsSession obs_session(args);

    if (args.get_switch("--enroll")) {
      if (args.get("--tenant").empty() || args.get("--store").empty()) {
        throw cli::ArgsError("--enroll needs --tenant and --store");
      }
      return run_enroll(args);
    }
    if (args.get("--data").empty() || args.get("--out").empty()) {
      throw cli::ArgsError("training needs --data and --out");
    }

    const std::filesystem::path data_dir = args.get("--data");
    const std::filesystem::path out_dir = args.get("--out");
    std::filesystem::create_directories(out_dir);

    const auto entries = read_manifest(data_dir);
    std::printf("corpus: %zu captures\n", entries.size());

    // Read/preprocess/extract per capture in parallel (the dominant cost),
    // then assemble the datasets serially in manifest order so the trained
    // models do not depend on worker scheduling.
    struct Extracted {
      ml::FeatureVector liveness;
      int liveness_label = core::kLabelLive;
      std::optional<ml::FeatureVector> orientation;
      int orientation_label = core::kLabelFacing;
    };
    std::vector<Extracted> extracted(entries.size());
    const core::LivenessFeatureExtractor liveness_features;
    std::atomic<std::size_t> processed{0};
    static obs::Histogram& extract_seconds =
        obs::Registry::global().histogram("train.extract_seconds");
    util::parallel_for(entries.size(), cli::jobs_from(args), [&](std::size_t i) {
      obs::ScopedSpan span("train.extract_capture");
      obs::Timer timer(&extract_seconds);
      const auto& entry = entries[i];
      const auto raw = audio::read_wav(entry.file);
      // The extractors preprocess internally (default config — the same
      // one the pipeline scores with), keeping the training definition
      // identical to streamed inference.
      auto& out = extracted[i];
      out.liveness = liveness_features.extract(raw);
      out.liveness_label = entry.source == sim::ReplaySource::kNone ? core::kLabelLive
                                                                    : core::kLabelReplay;
      if (entry.source == sim::ReplaySource::kNone) {
        const auto device = room::DeviceSpec::get(entry.device);
        core::OrientationFeatureConfig config;
        config.max_mic_distance_m = device.max_pair_distance(device.default_channels);
        const core::OrientationFeatureExtractor extractor(config);
        switch (core::training_arc(core::FacingDefinition::kDefinition4, entry.angle_deg)) {
          case core::TrainingArc::kFacing:
            out.orientation = extractor.extract(raw);
            out.orientation_label = core::kLabelFacing;
            break;
          case core::TrainingArc::kNonFacing:
            out.orientation = extractor.extract(raw);
            out.orientation_label = core::kLabelNonFacing;
            break;
          case core::TrainingArc::kExcluded:
            break;  // borderline angle — not used for training (§IV-A2)
        }
      }
      std::fprintf(stderr, "\r  %zu/%zu processed",
                   processed.fetch_add(1, std::memory_order_relaxed) + 1,
                   entries.size());
    });
    std::fprintf(stderr, "\n");

    ml::Dataset orientation_data, liveness_data;
    for (auto& e : extracted) {
      liveness_data.add(std::move(e.liveness), e.liveness_label);
      if (e.orientation) orientation_data.add(std::move(*e.orientation), e.orientation_label);
    }

    std::printf("orientation: %zu facing, %zu non-facing | liveness: %zu live, %zu replay\n",
                orientation_data.count_label(core::kLabelFacing),
                orientation_data.count_label(core::kLabelNonFacing),
                liveness_data.count_label(core::kLabelLive),
                liveness_data.count_label(core::kLabelReplay));

    core::OrientationClassifierConfig orientation_config;
    orientation_config.tune_svm = args.get_switch("--tune-svm");
    core::OrientationClassifier orientation(orientation_config);
    {
      obs::ScopedSpan span("train.fit_orientation");
      orientation.train(orientation_data);
    }
    {
      std::ofstream out(out_dir / "orientation.htm", std::ios::binary);
      orientation.save(out);
    }

    core::LivenessDetector liveness;
    if (liveness_data.distinct_labels().size() == 2) {
      {
        obs::ScopedSpan span("train.fit_liveness");
        liveness.train(liveness_data);
      }
      std::ofstream out(out_dir / "liveness.htm", std::ios::binary);
      liveness.save(out);
    } else {
      std::printf("note: corpus has no replay captures; liveness model skipped\n");
    }
    std::printf("models written to %s\n", out_dir.string().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n\n%s", error.what(), args.usage().c_str());
    return 1;
  }
}
