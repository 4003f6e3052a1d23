#!/usr/bin/env sh
# Runs the fast bench subset and validates the perf records they emit.
#
#   tools/run_bench_json.sh [build-dir]
#
# Each bench appends one JSON line to $HEADTALK_BENCH_OUT/BENCH_<id>.json
# (see bench/bench_common.h PerfRecorder). This script points the records
# at a scratch directory, runs the cheapest benches (fig3 renders nothing;
# fig5/fig6 render a handful of captures; serve_throughput runs a small
# daemon load with reduced client/utterance counts), and then checks every
# record against the checked-in shape schema with validate_bench_json.
# Wired into ctest as `bench_json_smoke` (label: bench-smoke).
set -eu

repo_dir=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_dir/build"}
schema="$repo_dir/bench/bench_record_schema.json"

benches="bench_fig3_spectra bench_fig5_forward_backward bench_fig6_gcc_srp bench_serve_throughput bench_runtime bench_stream_latency bench_tenant_serve"

# Keep the serving bench smoke-sized (the nightly perf run raises these).
export HEADTALK_SERVE_BENCH_CLIENTS=4
export HEADTALK_SERVE_BENCH_UTTERANCES=2
# bench_tenant_serve: a small tenant fleet still exercises publish/load/
# lookup/AUTH/reload end to end; the nightly run uses the 1000-tenant
# default. Six utterances per client keep each timed phase long enough
# (~60 ms on 4 cores) that one scheduler hiccup cannot push the AUTH'd /
# tenant-less ratio past its 0.80 gate; with two, the ratio read as low
# as 0.73 in 20 runs.
export HEADTALK_TENANT_BENCH_TENANTS=64
export HEADTALK_TENANT_BENCH_CLIENTS=4
export HEADTALK_TENANT_BENCH_UTTERANCES=6
export HEADTALK_TENANT_BENCH_LOOKUPS=20000
# bench_stream_latency: one 3-utterance scene, coarse chunks.
export HEADTALK_STREAM_BENCH_ROUNDS=1
export HEADTALK_STREAM_BENCH_CHUNK_MS=200
# bench_runtime: record only the cold/warm plan-cache comparison; the
# google-benchmark stage timings are far too slow for a smoke gate.
export HEADTALK_RUNTIME_SKIP_GBENCH=1
export HEADTALK_RUNTIME_BENCH_ITERS=3

for bench in $benches; do
  if [ ! -x "$build_dir/bench/$bench" ]; then
    echo "run_bench_json.sh: $build_dir/bench/$bench not built" >&2
    echo "  (build first: cmake --build $build_dir --target $bench)" >&2
    exit 2
  fi
done

out_dir="$build_dir/bench/out"
rm -rf "$out_dir"
mkdir -p "$out_dir"
export HEADTALK_BENCH_OUT="$out_dir"

for bench in $benches; do
  echo "== $bench =="
  "$build_dir/bench/$bench" > /dev/null
done

records=$(find "$out_dir" -name 'BENCH_*.json' | sort)
if [ -z "$records" ]; then
  echo "run_bench_json.sh: no BENCH_*.json records written to $out_dir" >&2
  exit 1
fi
count=$(printf '%s\n' "$records" | wc -l)
if [ "$count" -lt 7 ]; then
  echo "run_bench_json.sh: expected >= 7 records, found $count:" >&2
  printf '%s\n' "$records" >&2
  exit 1
fi

# shellcheck disable=SC2086
"$build_dir/tools/validate_bench_json" "$schema" $records
