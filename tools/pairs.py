"""Run the alternating-pairs protocol between a parent and a change.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload W --first-seed S
                           [--pairs N]

PARENT_DIR and CHANGE_DIR are two checkouts, such as two ``git archive``
copies.  Pair k, for k = 1..N, runs

    python3 bench/run.py --workload W --seed S+k-1 --seconds T --trace 0

in each checkout, each run in its own process: the parent first in odd
pairs, the change first in even ones.  N defaults to 10; T is always
BENCHMARK.json's run_seconds.  Use seeds that were not used while the change
was written.

For each end-to-end metric in BENCHMARK.json it prints both sides' medians
and quartiles, the change's median relative to the parent's, the pairs the
change won (a tie counts for neither side), and the gap between the medians
over the parent's interquartile range, positive when the change is better.
A FLAG line follows when the change's median is worse than the parent's by
more than the metric's bound.  It exits 1 when the two sides' digests differ
for a seed, when a run is not correct, or when the change failed more
operations than the parent.

Uses the standard library only.  Edits no file under bench/.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from trajectory import ROOT, run_benchmark, spread, worse_beyond  # noqa: E402


def run_pairs(parent: Path, change: Path, workload: str, first_seed: int, pairs: int,
              seconds: float) -> list:
    """(seed, parent run, change run) per pair, each run a parse_run()."""
    results = []
    for k in range(pairs):
        seed = first_seed + k
        sides = (("parent", parent), ("change", change))
        runs = {}
        for side, root in sides if k % 2 == 0 else sides[::-1]:
            runs[side] = run_benchmark(workload, seed, seconds, root=root)
            print(f"pair {k + 1} seed {seed} {side}: {runs[side]['metrics']}", file=sys.stderr)
        results.append((seed, runs["parent"], runs["change"]))
    return results


def report(results: list, metrics: list) -> tuple:
    """(lines, flags, failures) for the pairs from run_pairs(); `metrics` is
    BENCHMARK.json's end_to_end list."""
    lines, flags, failures = [], [], []
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        before = spread([p["metrics"][name] for _, p, _ in results])
        after = spread([c["metrics"][name] for _, _, c in results])
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c["metrics"][name] - p["metrics"][name]) > 0 for _, p, c in results)
        gap = sign * (after["median"] - before["median"])
        width = before["iqr"][1] - before["iqr"][0]
        over = f"{gap / width:+.2f}" if width else ("+inf" if gap > 0 else "-inf" if gap else "0")
        lines.append(
            f"{name} ({better} is better, bound {bound:.0%}): "
            f"parent {before['median']:.6g} ({before['iqr'][0]:.6g}-{before['iqr'][1]:.6g}) "
            f"change {after['median']:.6g} ({after['iqr'][0]:.6g}-{after['iqr'][1]:.6g}) "
            f"{after['median'] / before['median'] - 1:+.2%}, wins {wins}/{len(results)}, "
            f"gap/IQR {over}")
        if worse_beyond(before["median"], after["median"], bound, better):
            flags.append(f"{name}: median {before['median']:.6g} -> {after['median']:.6g}, "
                         f"worse by more than {bound:.0%}")
    for seed, p, c in results:
        if p["digest"] != c["digest"]:
            failures.append(f"seed {seed}: digest {p['digest'][:8]}... -> {c['digest'][:8]}...")
        for side, run in (("parent", p), ("change", c)):
            if not run["correct"]:
                failures.append(f"seed {seed}: the {side} run is not correct")
    parent_failed = sum(p["failed"] for _, p, _ in results)
    change_failed = sum(c["failed"] for _, _, c in results)
    if change_failed > parent_failed:
        failures.append(f"the change failed {change_failed} operations, the parent {parent_failed}")
    return lines, flags, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, required=True,
                        help="the first pair's seed; pair k uses it plus k-1")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = benchmark["run_seconds"]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for root in (args.parent, args.change):
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"{root} has no bench/run.py")

    results = run_pairs(args.parent, args.change, args.workload, args.first_seed, args.pairs,
                        seconds)
    lines, flags, failures = report(results, benchmark["end_to_end"])
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.first_seed}-"
          f"{args.first_seed + args.pairs - 1}, {seconds:g} s runs")
    for line in lines:
        print(line)
    for line in flags:
        print(f"FLAG {line}")
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
