#!/usr/bin/env sh
# End-to-end smoke test of the serving path: simulate a tiny corpus, train
# models from it, start the inference daemon on a temp Unix socket, score
# two canned utterances through headtalk_client, stream a continuous
# three-utterance scene in auto-endpoint mode (one DECISION per utterance),
# then SIGTERM the daemon and require a clean drain (exit 0, socket file
# removed). The streamed section also scrapes the admin plane and asserts
# the per-segment decision latency p95 stayed under the incremental-path
# budget (close pays only the residual feed + O(1) finalize), and the
# per-chunk ingest p95 under a fixed budget.
#
#   tools/run_serve_smoke.sh [build-dir]
#
# Wired into ctest as `serve_smoke` (label: serve-smoke).
set -eu

repo_dir=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_dir/build"}

for tool in headtalk_simulate headtalk_train headtalk_serve headtalk_client; do
  if [ ! -x "$build_dir/tools/$tool" ]; then
    echo "run_serve_smoke.sh: $build_dir/tools/$tool not built" >&2
    echo "  (build first: cmake --build $build_dir --target $tool)" >&2
    exit 2
  fi
done

work_dir=$(mktemp -d "${TMPDIR:-/tmp}/headtalk_serve_smoke.XXXXXX")
serve_pid=""
cleanup() {
  if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2> /dev/null; then
    kill -KILL "$serve_pid" 2> /dev/null || true
  fi
  rm -rf "$work_dir"
}
trap cleanup EXIT INT TERM

# Keep renders out of the user's shared cache (and reusable within the run).
export HEADTALK_CACHE="$work_dir/cache"

corpus="$work_dir/corpus"
models="$work_dir/models"
socket="$work_dir/serve.sock"
admin_socket="$work_dir/admin.sock"
# Generous CI bound: the incremental path finalizes in well under a
# millisecond on idle hardware, but smoke runs share loaded machines and
# the p95 is read from ×3 histogram buckets (a single preempted sample
# reports as its bucket's upper bound, ~7.29 ms). The old batch-rescore
# path reported ~22 ms, so 7.5 ms still cleanly gates the regression.
stream_p95_budget="${HEADTALK_SMOKE_STREAM_P95:-0.0075}"

echo "== simulate a tiny corpus =="
"$build_dir/tools/headtalk_simulate" --out "$corpus" \
  --angles 0,30,120,180 --reps 1
"$build_dir/tools/headtalk_simulate" --out "$corpus" \
  --replay phone --angles 0,120 --reps 1

echo "== train models =="
"$build_dir/tools/headtalk_train" --data "$corpus" --out "$models"

scene="$work_dir/scene.wav"
"$build_dir/tools/headtalk_simulate" --stream-out "$scene" \
  --stream-script "live@0,live@120,phone@0"
wav_a=$(find "$corpus" -name '*.wav' | sort | head -n 1)
wav_b=$(find "$corpus" -name '*.wav' | sort | tail -n 1)

echo "== start the daemon =="
"$build_dir/tools/headtalk_serve" --models "$models" --socket "$socket" \
  --admin-socket "$admin_socket" &
serve_pid=$!

tries=0
while [ ! -S "$socket" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "run_serve_smoke.sh: daemon never bound $socket" >&2
    exit 1
  fi
  if ! kill -0 "$serve_pid" 2> /dev/null; then
    echo "run_serve_smoke.sh: daemon exited before binding $socket" >&2
    exit 1
  fi
  sleep 0.1
done

echo "== score two utterances =="
"$build_dir/tools/headtalk_client" --socket "$socket" --wav "$wav_a,$wav_b"

echo "== stream a continuous multi-utterance scene =="
stream_report=$("$build_dir/tools/headtalk_client" --socket "$socket" \
  --stream --wav "$scene")
printf '%s\n' "$stream_report"
if ! printf '%s\n' "$stream_report" | grep -q "segments=3"; then
  echo "run_serve_smoke.sh: expected 3 endpointed segments" >&2
  exit 1
fi

echo "== assert streamed decision latency p95 =="
"$build_dir/tools/headtalk_client" --admin-socket "$admin_socket" \
  --assert-p95 "stream.decision_latency_seconds:$stream_p95_budget"

# Per streaming AUDIO_CHUNK (decode, ring, VAD, endpointer, operator
# feed): a fixed 5 ms, about 50x what a 20 ms chunk costs on idle
# hardware, so only a path that stopped being incremental (or a missing
# or empty histogram) fails it.
echo "== assert streamed chunk cost p95 =="
"$build_dir/tools/headtalk_client" --admin-socket "$admin_socket" \
  --assert-p95 "serve.stream_chunk_seconds:0.005"

echo "== graceful shutdown =="
kill -TERM "$serve_pid"
serve_status=0
wait "$serve_pid" || serve_status=$?
serve_pid=""
if [ "$serve_status" -ne 0 ]; then
  echo "run_serve_smoke.sh: daemon exited $serve_status after SIGTERM" >&2
  exit 1
fi
if [ -e "$socket" ]; then
  echo "run_serve_smoke.sh: socket file left behind after shutdown" >&2
  exit 1
fi

echo "serve smoke passed: trained, served, scored, drained cleanly."
