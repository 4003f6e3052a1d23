#!/usr/bin/env bash
# Builds the suite with ThreadSanitizer and runs the concurrency-relevant
# tests (thread pool, the shared FFT plan cache, sim harness incl. the
# FeatureCache stress test, the serve daemon's multi-client stress through
# its thread-per-connection core, and the integration pipeline), so the
# parallel collection engine and the inference server stay race-clean.
# Usage:
#
#   tools/run_tsan_tests.sh [build-dir]     # default: build-tsan
#
# tools/run_asan_tests.sh runs the whole suite under ASan + UBSan.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

cmake -B "$build_dir" -S "$repo_root" \
  -DHEADTALK_SANITIZE=thread \
  -DHEADTALK_BUILD_BENCHES=OFF \
  -DHEADTALK_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" -j "$(nproc)" \
  --target tests_util tests_obs tests_dsp tests_core tests_sim tests_serve tests_stream tests_tenant tests_integration

# halt_on_error: a single data race fails the run instead of scrolling by.
# The obs patterns cover the concurrent-counter exactness tests, the
# per-thread trace rings, the snapshot/export stress test (Metrics* also
# matches MetricsExport*), the slow-exemplar ring, and the admin plane's
# scrape-under-load paths.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
  -R 'ThreadPool|ParallelFor|Jobs\.|FeatureCacheTest|FftPlan|Experiment\.|Collector|EndToEnd|WavPipeline|Metrics|Tracer|ServeServer|ServeStreamMode|ServeAuth|TenantStore|TenantPolicy|Vad\.|Endpointer\.|StreamingDetector|StreamRing|Simd|Admin|SlowExemplar|IncrementalEquivalence'

echo "TSan test subset passed with zero reported races."
