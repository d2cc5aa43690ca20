"""Write one BENCH_<n>.json: the benchmark's end-to-end figures at a commit.

    python3 tools/trajectory.py --out BENCH_<n>.json [--runs N] [--seconds T]
                                [--compare PREV.json]

For each workload named in BENCHMARK.json, runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

N times, with seeds 1..N, each in its own process, and reads the ``digest``
line and the last line (the JSON result) of its output.  The file records
the commit, the Python version and the number of usable CPUs; per workload,
the median and interquartile range of each end-to-end metric, whether every
run was correct, the failed operations, and each seed's digest; and the line
count of every module under src/transient_sim.

With --compare, the new figures are checked against an earlier file: the
command exits 1 when a digest both files have for one seed differs, or a run
was not correct, and prints a FLAG line for each median that is worse than
the earlier one by more than BENCHMARK.json's bound for that metric.

Uses the standard library only.  Edits nothing under bench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(stdout: str) -> dict:
    """The digest and the JSON result of one bench/run.py run, from its
    standard output."""
    digest = None
    for line in stdout.splitlines():
        if line.startswith("digest "):
            digest = line.rsplit("sha256=", 1)[1].strip()
    lines = stdout.strip().splitlines()
    if digest is None or not lines:
        raise ValueError("no digest line or JSON result in the benchmark output")
    result = json.loads(lines[-1])
    return {
        "digest": digest,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarize(runs: dict) -> dict:
    """One workload's entry from its runs, a dict of seed -> parse_run()."""
    names = sorted({name for run in runs.values() for name in run["metrics"]})
    metrics = {}
    for name in names:
        values = [run["metrics"][name] for run in runs.values()]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        metrics[name] = {"median": statistics.median(values), "iqr": [q1, q3], "runs": values}
    return {
        "metrics": metrics,
        "correct": all(run["correct"] for run in runs.values()),
        "failed": sum(run["failed"] for run in runs.values()),
        "attempted": sum(run["attempted"] for run in runs.values()),
        "digests": {str(seed): run["digest"] for seed, run in runs.items()},
    }


def compare(prev: dict, cur: dict, bounds: dict) -> tuple:
    """(failures, flags): lines naming each digest that changed and each
    run that was not correct, and each median worse than prev's by more
    than its bound.  bounds maps a metric to (bound, "higher" or "lower")."""
    failures, flags = [], []
    for workload, entry in cur["workloads"].items():
        if not entry["correct"] or entry["failed"]:
            failures.append(f"{workload}: {entry['failed']} failed, correct={entry['correct']}")
        before = prev["workloads"].get(workload)
        if before is None:
            continue
        for seed, digest in entry["digests"].items():
            old = before["digests"].get(seed)
            if old is not None and old != digest:
                failures.append(f"{workload} seed {seed}: digest {old[:8]}... -> {digest[:8]}...")
        for name, (bound, better) in bounds.items():
            if name not in entry["metrics"] or name not in before["metrics"]:
                continue
            old, new = before["metrics"][name]["median"], entry["metrics"][name]["median"]
            worse = new < old * (1 - bound) if better == "higher" else new > old * (1 + bound)
            if worse:
                flags.append(f"{workload} {name}: median {old:.4g} -> {new:.4g}, "
                             f"worse by more than {bound:.0%}")
    return failures, flags


def run_benchmark(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1: ran, with an incorrect output
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    return parse_run(done.stdout)


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _line_counts() -> dict:
    counts = {}
    for path in sorted((ROOT / "src" / "transient_sim").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            counts[path.name] = sum(1 for _ in fh)
    counts["total"] = sum(counts.values())
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--runs", type=int, default=5, help="runs per workload, seeds 1..N")
    parser.add_argument("--seconds", type=float, default=30, help="length of each run")
    parser.add_argument("--compare", help="an earlier BENCH_<n>.json to check against")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seconds <= 0:
        parser.error("--runs must be at least 1 and --seconds positive")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {}
        for seed in range(1, args.runs + 1):
            runs[seed] = run_benchmark(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: {runs[seed]['metrics']}", file=sys.stderr)
        workloads[workload] = summarize(runs)
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "runs": args.runs,
        "seconds": args.seconds,
        "workloads": workloads,
        "src_lines": _line_counts(),
    }
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    if not args.compare:
        return 0
    prev = json.loads(Path(args.compare).read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in benchmark["end_to_end"]}
    failures, flags = compare(prev, record, bounds)
    for line in flags:
        print(f"FLAG {line}")
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
