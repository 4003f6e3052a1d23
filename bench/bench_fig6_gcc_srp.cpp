// Fig. 6: (a) GCC-PHAT between Mic1 and Mic2 of device D3, and (b) the
// weighted SRP sequence, for utterances spoken at 0°, 90°, and 180°.
// Shape: the smaller the facing angle, the higher the SRP peak values, and
// each SRP sequence shows several reverberation peaks.
#include "bench_common.h"

#include "core/incremental_extractor.h"
#include "dsp/srp.h"

using namespace headtalk;

int main() {
  bench::print_title("Fig. 6", "GCC (Mic1-Mic2, D3) and weighted SRP at 0/90/180 degrees");
  auto collector = bench::make_collector();

  const int max_lag = dsp::srp_max_lag(0.065, 48000.0);  // D3: +/-10 samples
  std::printf("D3 lag window: +/-%d samples (paper: 21 values)\n\n", max_lag);

  // The production operator computes both panels from the raw capture:
  // band-pass, trim, per-pair GCC-PHAT and their coherence-pruned sum.
  core::IncrementalExtractorConfig op_config;
  op_config.orientation.max_lag = max_lag;
  op_config.enable_liveness = false;
  core::IncrementalExtractor op;
  std::vector<std::vector<double>> gcc_rows, srp_rows;
  std::size_t pairs = 0;
  for (double angle : {0.0, 90.0, 180.0}) {
    sim::SampleSpec spec;
    spec.device = room::DeviceId::kD3;
    spec.angle_deg = angle;
    spec.location = {sim::GridRadial::kMiddle, 3.0};
    const auto capture = collector.capture(spec);
    op.begin(op_config, capture.channel_count(), capture.sample_rate());
    op.push(capture);
    (void)op.finalize_orientation();
    const auto gcc = op.pair_gcc(0);  // Mic1-Mic2
    gcc_rows.emplace_back(gcc.begin(), gcc.end());
    srp_rows.emplace_back(op.srp().begin(), op.srp().end());
    pairs = op.pair_count();
  }
  auto at_lag = [&](const std::vector<double>& row, int lag) {
    return row[static_cast<std::size_t>(lag + max_lag)];
  };

  std::printf("(a) GCC-PHAT, pair Mic1-Mic2\n");
  std::printf("%6s %10s %10s %10s\n", "lag", "0 deg", "90 deg", "180 deg");
  for (int lag = -max_lag; lag <= max_lag; ++lag) {
    std::printf("%6d %10.4f %10.4f %10.4f\n", lag, at_lag(gcc_rows[0], lag),
                at_lag(gcc_rows[1], lag), at_lag(gcc_rows[2], lag));
  }

  std::printf("\n(b) weighted SRP (sum of all %zu pair GCCs)\n", pairs);
  std::printf("%6s %10s %10s %10s\n", "lag", "0 deg", "90 deg", "180 deg");
  for (int lag = -max_lag; lag <= max_lag; ++lag) {
    std::printf("%6d %10.4f %10.4f %10.4f\n", lag, at_lag(srp_rows[0], lag),
                at_lag(srp_rows[1], lag), at_lag(srp_rows[2], lag));
  }

  std::printf("\nSRP top-3 peaks:\n");
  const char* names[3] = {"0 deg", "90 deg", "180 deg"};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto peaks = dsp::top_peaks(srp_rows[i], 3);
    std::printf("  %-8s %.4f %.4f %.4f\n", names[i], peaks[0], peaks[1], peaks[2]);
  }
  bench::print_note(
      "paper (Fig. 6b): smaller angle -> higher SRP power; 3-4 peaks from\n"
      "reverberation. Shape check: peak(0) > peak(90) >~ peak(180).");
  return 0;
}
