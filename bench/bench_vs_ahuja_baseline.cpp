// §II head-to-head: HeadTalk's SRP-PHAT + directivity feature set vs. the
// Ahuja et al. DoV baseline (GCC-PHAT features only), trained with the same
// SVM on the same captures. Paper: HeadTalk improves >3 points in both the
// normal and cross-environment settings (e.g. 94.20 % vs 92.0 % on the DoV
// data; 96.14 % vs ~93 % on its own).
#include "bench_common.h"

#include "baseline/dov.h"
#include "ml/metrics.h"
#include "ml/scaler.h"
#include "ml/svm.h"

using namespace headtalk;

namespace {

// Extracts DoV features for the same specs (Collector::capture is
// deterministic; DoV features are not disk-cached, so this re-renders —
// keep the corpus modest). The raw capture goes in: the extractor shares
// HeadTalk's band-pass, trim and pruned GCC windows.
ml::FeatureVector dov_features(const sim::Collector& collector,
                               const sim::SampleSpec& spec) {
  baseline::DovFeatureConfig cfg;
  cfg.max_mic_distance_m =
      room::DeviceSpec::get(spec.device).max_pair_distance(collector.channels_for(spec.device));
  return baseline::DovFeatureExtractor(cfg).extract(collector.capture(spec));
}

double evaluate(const ml::Dataset& train, const ml::Dataset& test) {
  ml::StandardScaler scaler;
  const auto strain = scaler.fit_transform(train);
  ml::Svm svm;
  svm.fit(strain);
  std::vector<int> y_pred;
  for (const auto& row : test.features) y_pred.push_back(svm.predict(scaler.transform(row)));
  return ml::accuracy(test.labels, y_pred);
}

}  // namespace

int main() {
  bench::print_title("HeadTalk vs DoV (§II)", "SRP+directivity features vs GCC-only baseline");
  auto collector = bench::make_collector();

  sim::ProtocolScale scale;
  scale.repetitions = 2;
  const auto specs = sim::dataset1({sim::RoomId::kLab}, {room::DeviceId::kD2},
                                   {speech::WakeWord::kComputer}, scale);
  const auto headtalk_samples = bench::collect(collector, specs, "HeadTalk features");

  std::fprintf(stderr, "extracting DoV baseline features for %zu specs...\n", specs.size());
  std::vector<sim::OrientationSample> dov_samples;
  dov_samples.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    dov_samples.push_back({specs[i], dov_features(collector, specs[i])});
    if ((i + 1) % 25 == 0) std::fprintf(stderr, "\r  [%zu/%zu]", i + 1, specs.size());
  }
  std::fprintf(stderr, "\n");

  std::printf("%-34s %10s %10s\n", "facing definition", "HeadTalk", "DoV");
  // HeadTalk's Definition-4 arcs for its own system; the DoV baseline is
  // evaluated under Ahuja's Forward-Facing definition on the same captures.
  for (int pass = 0; pass < 2; ++pass) {
    const bool use_def4 = pass == 0;
    double ht_acc = 0.0, dov_acc = 0.0;
    int folds = 0;
    for (unsigned train_session : {0u, 1u}) {
      auto label_of = [&](double angle) -> int {
        if (use_def4) {
          switch (core::training_arc(core::FacingDefinition::kDefinition4, angle)) {
            case core::TrainingArc::kFacing:
              return core::kLabelFacing;
            case core::TrainingArc::kNonFacing:
              return core::kLabelNonFacing;
            default:
              return -1;
          }
        }
        return baseline::dov_is_facing(baseline::DovFacing::kForwardFacing, angle)
                   ? core::kLabelFacing
                   : core::kLabelNonFacing;
      };
      auto build = [&](const std::vector<sim::OrientationSample>& samples, bool train_set) {
        ml::Dataset d;
        for (const auto& s : samples) {
          if ((s.spec.session == train_session) != train_set) continue;
          const int label = label_of(s.spec.angle_deg);
          if (label >= 0) d.add(s.features, label);
        }
        return d;
      };
      ht_acc += evaluate(build(headtalk_samples, true), build(headtalk_samples, false));
      dov_acc += evaluate(build(dov_samples, true), build(dov_samples, false));
      ++folds;
    }
    ht_acc /= folds;
    dov_acc /= folds;
    std::printf("%-34s %9.2f%% %9.2f%%   (gap %+.2f)\n",
                use_def4 ? "HeadTalk Def-4 arcs" : "Ahuja Forward-Facing (0,+/-45)",
                bench::pct(ht_acc), bench::pct(dov_acc), bench::pct(ht_acc - dov_acc));
  }
  bench::print_note(
      "paper: HeadTalk beats the GCC-only approach by ~2-3 points (94.20% vs\n"
      "92.0% on DoV's data; +3% in normal and cross-environment settings).\n"
      "Shape check: HeadTalk >= DoV under both facing definitions.");
  return 0;
}
