"""Run the alternating-pairs protocol between a parent and a change.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload W --first-seed S
                           [--pairs N] [--variant PATCH]

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

With --variant, a third side takes part: a copy of CHANGE_DIR, made in a
temporary directory, with the diff PATCH reverted by ``git apply
--reverse``.  Each pair runs it too, last in odd pairs and first in even
ones, so the change always runs between the other two.  The variant is
then reported against the change as the parent is, with its own FLAG and
FAIL lines, so PATCH's share of the change's gain can be read off: the
change's gain over a variant without the lever.

Uses the standard library only.  Edits no file under bench/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from trajectory import ROOT, run_benchmark, spread, worse_beyond  # noqa: E402


def run_pairs(sides: list, workload: str, first_seed: int, pairs: int, seconds: float) -> list:
    """(seed, {side: run}) per pair, each run a parse_run(); `sides` is a
    list of (side, checkout) in the order of odd pairs, reversed in even
    ones."""
    results = []
    for k in range(pairs):
        seed = first_seed + k
        runs = {}
        for side, root in sides if k % 2 == 0 else sides[::-1]:
            runs[side] = run_benchmark(workload, seed, seconds, root=root)
            print(f"pair {k + 1} seed {seed} {side}: {runs[side]['metrics']}", file=sys.stderr)
        results.append((seed, runs))
    return results


def variant_checkout(change: Path, patch: Path, into: Path) -> Path:
    """A copy of the checkout `change`, at into/variant, with `patch`
    reverted; ValueError when it does not revert cleanly."""
    root = into / "variant"
    shutil.copytree(change, root, ignore=shutil.ignore_patterns(".git", "__pycache__"))
    done = subprocess.run(["git", "apply", "--reverse", str(patch.resolve())], cwd=root,
                          capture_output=True, text=True)
    if done.returncode:
        raise ValueError(f"{patch} does not revert on {change}: {done.stderr.strip()}")
    return root


def report(results: list, metrics: list, base: str = "parent") -> tuple:
    """(lines, flags, failures) for pairs of (seed, base run, change run);
    `metrics` is BENCHMARK.json's end_to_end list, and `base` names the side
    the change is measured against."""
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
            f"{base} {before['median']:.6g} ({before['iqr'][0]:.6g}-{before['iqr'][1]:.6g}) "
            f"change {after['median']:.6g} ({after['iqr'][0]:.6g}-{after['iqr'][1]:.6g}) "
            f"{after['median'] / before['median'] - 1:+.2%}, wins {wins}/{len(results)}, "
            f"gap/IQR {over}")
        if worse_beyond(before["median"], after["median"], bound, better):
            flags.append(f"{name}: median {before['median']:.6g} -> {after['median']:.6g}, "
                         f"worse by more than {bound:.0%}")
    for seed, p, c in results:
        if p["digest"] != c["digest"]:
            failures.append(f"seed {seed}: digest {p['digest'][:8]}... -> {c['digest'][:8]}...")
        for side, run in ((base, p), ("change", c)):
            if not run["correct"]:
                failures.append(f"seed {seed}: the {side} run is not correct")
    parent_failed = sum(p["failed"] for _, p, _ in results)
    change_failed = sum(c["failed"] for _, _, c in results)
    if change_failed > parent_failed:
        failures.append(f"the change failed {change_failed} operations, the {base} {parent_failed}")
    return lines, flags, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, required=True,
                        help="the first pair's seed; pair k uses it plus k-1")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--variant", type=Path, metavar="PATCH",
                        help="also run the change with this diff reverted")
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

    with tempfile.TemporaryDirectory() as tmp:
        sides = [("parent", args.parent), ("change", args.change)]
        if args.variant:
            try:
                sides.append(("variant", variant_checkout(args.change, args.variant,
                                                          Path(tmp))))
            except ValueError as exc:
                parser.error(str(exc))
        results = run_pairs(sides, args.workload, args.first_seed, args.pairs, seconds)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.first_seed}-"
          f"{args.first_seed + args.pairs - 1}, {seconds:g} s runs")
    flags, failures = [], []
    for base in ("parent", "variant") if args.variant else ("parent",):
        if base == "variant":
            print(f"variant: the change with {args.variant} reverted")
        lines, base_flags, base_failures = report(
            [(seed, runs[base], runs["change"]) for seed, runs in results],
            benchmark["end_to_end"], base)
        for line in lines:
            print(line)
        prefix = "variant " if base == "variant" else ""
        flags += [prefix + line for line in base_flags]
        failures += [prefix + line for line in base_failures]
    for line in flags:
        print(f"FLAG {line}")
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
