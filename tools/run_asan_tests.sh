#!/usr/bin/env bash
# Builds the suite with AddressSanitizer + UndefinedBehaviorSanitizer and
# runs every ctest test (not a subset). HEADTALK_SANITIZE=address adds
# -fsanitize=address,undefined -fno-sanitize-recover=undefined, so any
# memory error or undefined behaviour fails its test. Benches and examples
# are off (bench_json_smoke is the one ctest entry they add). Usage:
#
#   tools/run_asan_tests.sh [build-dir]     # default: build-asan
#
# A cold build takes several minutes on 4 cores; the tests ~30 s.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build-asan}"

cmake -B "$build_dir" -S "$repo_root" \
  -DHEADTALK_SANITIZE=address \
  -DHEADTALK_BUILD_BENCHES=OFF \
  -DHEADTALK_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" -j "$(nproc)"

export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

echo "ASan+UBSan: every test passed ($(ctest --test-dir "$build_dir" -N | tail -1))."
