// Live metrics exposition and cross-process aggregation.
//
// The MetricsRegistry (obs/metrics.h) is an in-process store; this layer
// turns it into wire formats a running daemon can serve and an aggregator
// can combine:
//
//   - snapshot():        a point-in-time, plain-data copy of a Registry —
//                        safe to render, ship, or merge after the fact.
//   - write_prometheus(): Prometheus text exposition (format 0.0.4):
//                        counters, gauges, and histograms with *cumulative*
//                        `_bucket{le="..."}` series plus `_sum`/`_count`,
//                        ending in le="+Inf". Metric names are the registry
//                        names with every character outside [a-zA-Z0-9_:]
//                        mapped to '_' (so `pipeline.decision.accepted`
//                        scrapes as `pipeline_decision_accepted`).
//   - write_snapshot_json()/parse_snapshot_json(): a lossless JSON form
//                        (per-bucket counts, not quantiles) that round-
//                        trips through parse — the shipping format for
//                        cross-process aggregation.
//   - merge_into():      combines snapshots from N processes: counters
//                        sum, histogram buckets/count/sum add (bounds must
//                        match exactly — a mismatch throws, it is a config
//                        error, not data), gauges combine under a policy
//                        (default kMax; per-name overrides for gauges
//                        where min/sum/last is the meaningful aggregate).
//
// Everything here works on plain structs; nothing holds registry locks
// beyond the initial snapshot, so rendering and merging never stall
// scoring threads.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace headtalk::obs {

/// Plain-data copy of one histogram: `buckets` has bounds.size() + 1
/// entries, the last being the overflow (+Inf) bucket, and holds
/// *per-bucket* counts (the Prometheus writer accumulates them).
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;

  bool operator==(const HistogramSnapshot&) const = default;
};

/// Point-in-time copy of a whole registry.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Copies every instrument of `registry` (Registry::global() by default).
[[nodiscard]] MetricsSnapshot snapshot(const Registry& registry = Registry::global());

/// q in [0, 1] interpolated inside the containing bucket; 0 when empty,
/// bounds.back() for ranks in the overflow bucket — the same estimator the
/// in-process Histogram::quantile uses, applied to shipped data.
[[nodiscard]] double snapshot_quantile(const HistogramSnapshot& histogram, double q);

/// Registry name -> Prometheus metric name ([a-zA-Z0-9_:] survives, the
/// rest becomes '_').
[[nodiscard]] std::string prometheus_name(std::string_view name);

/// Prometheus text exposition format 0.0.4 (one # TYPE line per metric).
void write_prometheus(std::ostream& out, const MetricsSnapshot& snapshot);
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snapshot);

/// Lossless JSON form: {"snapshot_version":1,"counters":{...},
/// "gauges":{...},"histograms":{name:{"bounds":[...],"buckets":[...],
/// "count":N,"sum":S}}}. Buckets carry the overflow count as the last
/// element. Parse accepts exactly what write emits (unknown keys inside a
/// histogram object are ignored so the form can grow).
void write_snapshot_json(std::ostream& out, const MetricsSnapshot& snapshot);
[[nodiscard]] std::string to_snapshot_json(const MetricsSnapshot& snapshot);

/// Throws util::JsonError on malformed JSON and std::invalid_argument on a
/// structurally wrong snapshot (missing keys, bucket/bound length skew).
[[nodiscard]] MetricsSnapshot parse_snapshot_json(std::string_view text);

/// Writes the snapshot JSON (plus trailing newline) to `path`; returns
/// false after logging a warning when the file cannot be written. This is
/// what `--metrics-out` emits — the same bytes a /metrics.json scrape of
/// the process would have returned, so offline and live consumers share
/// one format.
bool write_snapshot_json_file(const std::filesystem::path& path,
                              const MetricsSnapshot& snapshot);

/// How two gauge values combine in a merge. Counters always sum and
/// histograms always add per-bucket; gauges are instantaneous readings, so
/// the right combination depends on what the gauge measures (active
/// connections aggregate by sum, a high-water mark by max, ...).
enum class GaugeMergePolicy { kMax, kMin, kSum, kLast };

struct MergeOptions {
  GaugeMergePolicy default_gauge = GaugeMergePolicy::kMax;
  /// Per-name overrides, e.g. {"serve.active_connections", kSum}.
  std::map<std::string, GaugeMergePolicy> gauge_overrides;
};

/// Folds `from` into `into`. Histograms present in both must have
/// identical bounds (std::invalid_argument otherwise, naming the metric);
/// instruments present in only one side are kept as-is.
void merge_into(MetricsSnapshot& into, const MetricsSnapshot& from,
                const MergeOptions& options = {});

/// Convenience: merge of N snapshots (empty input -> empty snapshot).
[[nodiscard]] MetricsSnapshot merge(const std::vector<MetricsSnapshot>& snapshots,
                                    const MergeOptions& options = {});

}  // namespace headtalk::obs
