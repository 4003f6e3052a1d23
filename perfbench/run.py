#!/usr/bin/env python3
"""HeadTalk serving benchmark.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload utterance_open --seed 1 --seconds 10 --trace 0

Builds the shipped daemon (headtalk_serve) and the benchmark driver from
source into $CARGO_TARGET_DIR (default .bench_build), then drives the daemon
over its Unix socket. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
stamp (host, build, commit, seed) and every metric by name and unit.
Workloads: utterance_open, utterance_closed, stream_paced.

Compare two sets of runs (each a directory of captured outputs, one run per
file, any mix of workloads and seeds):

    python3 perfbench/run.py compare runs/parent runs/change

prints each workload x end-to-end metric as median and quartiles per side
and judges it against the bounds in BENCHMARK.json. With one directory it
prints the spread of each metric against its bound instead.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def commit_id():
    """The git sha when the checkout is a repository, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for file in files:
            digest.update(str(file.relative_to(ROOT)).encode())
            digest.update(file.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the daemon and the driver; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no HeadTalk sources next to {HERE.name}/ — nothing to build or measure")
        sys.exit(2)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                    "headtalk_serve", "headtalk_perfbench"], check=True, stdout=sys.stderr)
    return build_dir


def run(args):
    try:
        build_dir = build()
    except subprocess.CalledProcessError as error:
        log(f"build failed: {error}")
        sys.exit(2)
    serve_bin = build_dir / "headtalk" / "tools" / "headtalk_serve"
    driver = build_dir / "headtalk_perfbench"
    argv = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--serve-bin", str(serve_bin), "--work-dir", str(build_dir / "perfbench"),
            "--commit", commit_id()]
    sys.stdout.flush()
    os.execv(str(driver), argv)


# ---- compare ------------------------------------------------------------------

def load_runs(directory):
    """(workload, metric) -> list of values, from every captured run output."""
    runs = {}
    for file in sorted(Path(directory).iterdir()):
        if not file.is_file():
            continue
        stamp, result = None, None
        for line in file.read_text().splitlines():
            line = line.strip()
            if line.startswith('{"stamp"'):
                stamp = json.loads(line)["stamp"]
            elif line.startswith('{"correct"'):
                result = json.loads(line)
        if stamp is None or result is None:
            continue
        if not result.get("correct", False):
            log(f"{file}: run was not correct; its figures still count")
        for name, metric in result["metrics"].items():
            runs.setdefault((stamp["workload"], name), []).append(metric["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parent = load_runs(args.parent)
    change = load_runs(args.change) if args.change else None
    keys = sorted(k for k in parent if k[1] in bounds)
    if change is None:
        print(f"{'workload':18} {'metric':22} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for workload, name in keys:
            values = parent[(workload, name)]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            flag = "" if spread <= bound / 3 else (" (> bound/3)" if spread <= bound else " OVER")
            print(f"{workload:18} {name:22} {len(values):3d} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.3f} {bound:6.2f}{flag}")
        return 0
    print(f"{'workload':18} {'metric':22} {'parent median [q1,q3]':>32} "
          f"{'change median [q1,q3]':>32} {'delta':>7}  verdict")
    worst = 0
    for workload, name in keys:
        if (workload, name) not in change:
            continue
        a, b = parent[(workload, name)], change[(workload, name)]
        pa, pb = quartiles(a), quartiles(b)
        bound = bounds[name]["bound"]
        lower_is_better = bounds[name]["better"] == "lower"
        delta = (pb[1] - pa[1]) / pa[1] if pa[1] else 0.0
        worse = delta if lower_is_better else -delta
        spread = max((pa[2] - pa[0]) / pa[1] if pa[1] else 0.0,
                     (pb[2] - pb[0]) / pb[1] if pb[1] else 0.0)
        all_better = (max(b) < min(a)) if lower_is_better else (min(b) > max(a))
        all_worse = (min(b) > max(a)) if lower_is_better else (max(b) < min(a))
        if spread > bound and not (all_better or all_worse):
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSED"
            worst = 1
        elif -worse > max(spread, 0.0) and all_better:
            verdict = "improved"
        else:
            verdict = "unchanged"
        print(f"{workload:18} {name:22} {pa[1]:12.5g} [{pa[0]:.5g},{pa[2]:.5g}]".ljust(74) +
              f"{pb[1]:12.5g} [{pb[0]:.5g},{pb[2]:.5g}]".ljust(33) +
              f"{100 * delta:+6.1f}%  {verdict}")
    return worst


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change", nargs="?")
        sys.exit(compare(parser.parse_args(sys.argv[2:])))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["utterance_open", "utterance_closed", "stream_paced"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
