// §II comparison claim: liveness detection range. CaField works only to
// ~0.5 m and Void to ~2.6 m, while HeadTalk's liveness detector keeps
// working "for as far as 5 m". We train both our detector and a Void-style
// baseline (spectral power-distribution features + SVM) on mixed-distance
// data and report accuracy/EER per test distance.
#include "bench_common.h"

#include "baseline/void.h"
#include "core/liveness_detector.h"
#include "ml/metrics.h"
#include "ml/scaler.h"
#include "ml/svm.h"

using namespace headtalk;

namespace {

struct Sample {
  sim::SampleSpec spec;
  ml::FeatureVector headtalk;
  ml::FeatureVector void_style;
  int label;
};

}  // namespace

int main() {
  bench::print_title("Liveness vs distance (§II)",
                     "HeadTalk detector vs Void-style baseline at 1 / 3 / 5 m");
  auto collector = bench::make_collector();

  sim::SpecGrid live;
  live.locations = sim::middle_grid_locations();  // 1 / 3 / 5 m
  live.angles = {0.0, 45.0, -45.0, 90.0, 180.0};
  live.sessions = {0, 1};
  live.repetitions = 2;
  auto replay = live;
  replay.replay = sim::ReplaySource::kHighEnd;

  baseline::VoidFeatureExtractor void_extractor;
  auto gather = [&](const std::vector<sim::SampleSpec>& specs, int label) {
    std::vector<Sample> out;
    std::fprintf(stderr, "collecting %zu captures (label %d)...\n", specs.size(), label);
    for (const auto& spec : specs) {
      Sample s;
      s.spec = spec;
      s.label = label;
      s.headtalk = collector.liveness_features(spec);
      // The Void baseline is not disk-cached; re-render via the collector.
      // Void consumes the raw channel 0 (its own power spectrum, no
      // HeadTalk band-pass or trim).
      s.void_style = void_extractor.extract(collector.capture(spec).channel(0));
      out.push_back(std::move(s));
    }
    return out;
  };
  auto samples = gather(live.build(), core::kLabelLive);
  const auto replays = gather(replay.build(), core::kLabelReplay);
  samples.insert(samples.end(), replays.begin(), replays.end());

  // Train on session 0 (all distances), test per distance on session 1.
  ml::Dataset ht_train, void_train;
  for (const auto& s : samples) {
    if (s.spec.session != 0) continue;
    ht_train.add(s.headtalk, s.label);
    void_train.add(s.void_style, s.label);
  }
  core::LivenessDetector headtalk_detector;
  headtalk_detector.train(ht_train);
  ml::StandardScaler void_scaler;
  ml::Svm void_svm;
  void_svm.fit(void_scaler.fit_transform(void_train));

  std::printf("%10s | %22s | %22s\n", "distance", "HeadTalk acc / EER", "Void-style acc / EER");
  for (double distance : {1.0, 3.0, 5.0}) {
    std::vector<double> ht_scores, void_scores;
    std::vector<int> labels, ht_pred, void_pred;
    for (const auto& s : samples) {
      if (s.spec.session != 1 || s.spec.location.distance_m != distance) continue;
      labels.push_back(s.label);
      const double hs = headtalk_detector.score(s.headtalk);
      ht_scores.push_back(hs);
      ht_pred.push_back(hs >= 0.5 ? core::kLabelLive : core::kLabelReplay);
      const double vs = void_svm.decision_value(void_scaler.transform(s.void_style));
      void_scores.push_back(vs);
      void_pred.push_back(vs >= 0.0 ? core::kLabelLive : core::kLabelReplay);
    }
    std::printf("%8.0f m | %9.2f%% / %6.2f%% | %9.2f%% / %6.2f%%\n", distance,
                bench::pct(ml::accuracy(labels, ht_pred)),
                bench::pct(ml::equal_error_rate(ht_scores, labels, core::kLabelLive)),
                bench::pct(ml::accuracy(labels, void_pred)),
                bench::pct(ml::equal_error_rate(void_scores, labels, core::kLabelLive)));
  }
  bench::print_note(
      "paper (§II): Void covers at most 2.6 m; HeadTalk works to 5 m with\n"
      "EER 2.58%. Shape check: HeadTalk stays accurate at 5 m; the Void-style\n"
      "single-channel power features degrade faster with distance.");
  return 0;
}
