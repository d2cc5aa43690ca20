"""Write one BENCH_<n>.json: the benchmark's end-to-end figures at a commit.

    python3 tools/trajectory.py --out BENCH_<n>.json [--runs N] [--seconds T]
                                [--compare PREV.json]
    python3 tools/trajectory.py --history

For each workload named in BENCHMARK.json, runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

N times, with seeds 1..N, each in its own process, and reads the ``digest``
line and the last line (the JSON result) of its output.  The file records
the commit, the Python version and the number of usable CPUs; per workload,
the median and interquartile range of each end-to-end metric, whether every
run was correct, the failed operations, and each seed's digest; the line
count of every module under src/transient_sim; the test count and wall
time of one run of the Tier-1 suite,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

in its own process; per workload, the per-layer metrics of one run of

    python3 bench/run.py --workload W --seed 1 --seconds T --trace 1

(which, as always with --trace 1, writes its spans to bench/out/); and
per-layer figures, each timed in this process through public calls on
intel_i7 and divided by the time of bench/run.py's reference_loop: a
256-line flush_lines plus a user-mode probe_lines, an 8-line user-mode
probe_and_flush_lines on a machine of its own, make_machine, one run of a HALT program, one run of a
short counted loop (load, ALU, store, compare, backward branch), and the
assembly and decode of a fixed 24-line program (labels, a call and its
return, memory operands and immediates).

With --compare, the new figures are checked against an earlier file: the
command exits 1 when a digest both files have for one seed differs, a run
(traced or not) was not correct, or the Tier-1 run did not pass, and prints
a FLAG line for each median that is worse than the earlier one by more than
BENCHMARK.json's bound for that metric.  Each layer figure both files have
is printed on a LAYER line, each traced metric on a TRACE line, and the
Tier-1 figures on a TIER1 line; none is flagged, since BENCHMARK.json gives
them no bound.  A SETUP line per workload sets its setup_s, which is raw
host seconds and so moves with the host's speed, beside the two files'
traced host.ref_loop_ms and setup_s in reference loops; the setup_s FLAG
still reads the raw medians.

With --history, nothing is run: for every BENCH_<n>.json at the root of the
repository, in ascending n, one line per workload gives the file, its commit
and the workload's end-to-end medians.

Uses the standard library only.  Edits no file under bench/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
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


def spread(values: list) -> dict:
    """The median, the quartiles and the values themselves."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "iqr": [q1, q3], "runs": values}


def summarize(runs: dict) -> dict:
    """One workload's entry from its runs, a dict of seed -> parse_run()."""
    names = sorted({name for run in runs.values() for name in run["metrics"]})
    metrics = {name: spread([run["metrics"][name] for run in runs.values()]) for name in names}
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
            if worse_beyond(old, new, bound, better):
                flags.append(f"{workload} {name}: median {old:.4g} -> {new:.4g}, "
                             f"worse by more than {bound:.0%}")
    return failures, flags


def worse_beyond(old: float, new: float, bound: float, better: str) -> bool:
    """Whether `new` is worse than `old` by more than the fraction `bound`,
    for a metric where `better` ("higher" or "lower") values are better."""
    return new < old * (1 - bound) if better == "higher" else new > old * (1 + bound)


_OUTCOME = re.compile(r"(\d+) (passed|failed|skipped|xfailed|xpassed|errors?)\b")


def parse_pytest_summary(stdout: str) -> dict:
    """Outcome -> test count from the summary line of a pytest -q run, as
    pytest names the outcomes: "1 failed, 476 passed in 14.02s" gives
    {"failed": 1, "passed": 476}."""
    for line in reversed(stdout.splitlines()):
        counts = _OUTCOME.findall(line)
        if counts and " in " in line:
            return {outcome: int(n) for n, outcome in counts}
    raise ValueError("no pytest summary line in the output")


def tier1_figures() -> dict:
    """The Tier-1 suite's outcome counts, test count and wall time, from one
    run of it in its own process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    counts = parse_pytest_summary(done.stdout)
    return {"tests": sum(counts.values()), "counts": counts, "wall_s": wall,
            "exit": done.returncode}


def trace_lines(prev: dict, cur: dict) -> list:
    """A TRACE line for each traced metric of a workload both files have."""
    lines = []
    for workload, run in cur.get("traced", {}).items():
        before = prev.get("traced", {}).get(workload, {}).get("metrics", {})
        for name, new in run["metrics"].items():
            if name in before:
                old = before[name]
                change = f" ({new / old - 1:+.1%})" if old else ""
                lines.append(f"TRACE {workload} {name}: {old:.4g} -> {new:.4g}{change}")
    return lines


def setup_lines(prev: dict, cur: dict) -> list:
    """A SETUP line for each workload both files have: the setup_s medians,
    which are raw host seconds, and, where both files traced the workload,
    the ratio of their host.ref_loop_ms and setup_s in reference loops
    (setup_s over host.ref_loop_ms), which a slower host does not move."""
    lines = []
    for workload, entry in cur["workloads"].items():
        before = prev["workloads"].get(workload, {}).get("metrics", {}).get("setup_s")
        if before is None or "setup_s" not in entry["metrics"]:
            continue
        old, new = before["median"], entry["metrics"]["setup_s"]["median"]
        line = f"SETUP {workload} setup_s: {old:.4g} -> {new:.4g} s ({new / old - 1:+.1%})"
        ref_old, ref_new = (record.get("traced", {}).get(workload, {}).get("metrics", {})
                            .get("host.ref_loop_ms") for record in (prev, cur))
        if ref_old and ref_new:
            loops_old, loops_new = 1000 * old / ref_old, 1000 * new / ref_new
            line += (f"; host.ref_loop_ms x{ref_new / ref_old:.2f}; setup_s / host.ref_loop_ms: "
                     f"{loops_old:.4g} -> {loops_new:.4g} reference loops "
                     f"({loops_new / loops_old - 1:+.1%})")
        lines.append(line)
    return lines


def history(directory: Path) -> list:
    """A line per workload of every BENCH_<n>.json in `directory`, in
    ascending n: the file, its commit and the workload's end-to-end
    medians."""
    numbered = sorted(
        (int(match[1]), path) for path in directory.glob("BENCH_*.json")
        if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    )
    lines = []
    for _, path in numbered:
        record = json.loads(path.read_text(encoding="utf-8"))
        commit = record["commit"][:12] + ("-dirty" if record.get("dirty") else "")
        for workload, entry in record["workloads"].items():
            medians = " ".join(f"{name}={metric['median']:.6g}"
                               for name, metric in sorted(entry["metrics"].items()))
            lines.append(f"{path.stem} {commit} {workload} {medians}")
    return lines


def run_benchmark(workload: str, seed: int, seconds: float, trace: int = 0,
                  root: Path = ROOT) -> dict:
    """parse_run() of one bench/run.py run in the checkout at `root`."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1: ran, with an incorrect output
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    return parse_run(done.stdout)


def load_reference_loop():
    """bench/run.py's reference_loop, imported from it (not copied), without
    writing bytecode under bench/."""
    bench = str(ROOT / "bench")
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    sys.path.insert(0, bench)  # run.py imports its checkers, inputs and tracer
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(bench)
    return module.reference_loop


def _layers() -> dict:
    """name -> a call that does one unit of that layer's work."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from transient_sim import assemble, get_profile, make_machine, run
    from transient_sim.attacks import ORACLE_BASE, ORACLE_LINES
    from transient_sim.covert import PROBE_BASE
    from transient_sim.memory import Privilege

    profile = get_profile("intel_i7")
    state = make_machine(profile)
    mem = state.mem
    # the covert receiver's probe sets are empty after each flush, so its
    # layer gets a machine the 256-line reload does not fill
    covert_mem = make_machine(profile).mem
    halt = assemble("HALT")
    loop = assemble("    MOVI r12, 16\ntop:\n    LD r8, [r14 + 384]\n    ADD r0, r8, r12\n"
                    "    ST [r14 + 376], r0\n    ADD r12, r12, -1\n    CMP r12, 0\n"
                    "    BGE top\n    HALT\n")
    looping = make_machine(profile)
    looping.regs[14] = 0x2000
    user = Privilege.USER
    source = ("    MOVI r15, 0x6000\n    MOVI r14, 0x2000\n    MOVI r12, 8\ntop:\n"
              "    LD r1, [r14 + 16]\n    ADD r2, r1, -3\n    AND r3, r2, 0xff\n"
              "    SHL r4, r3, 6\n    ST [r14 + 24], r4\n    CALL helper\n    FLUSH [r14 - 64]\n"
              "    ADD r12, r12, -1\n    CMP r12, 0\n    BGE top\n    MRS r5, s2\n    RDCYC r6\n"
              "    FENCE\n    HALT\nhelper:\n    LD r7, [r14]\n    ADD r7, r7, r1\n"
              "    ST [r14 + 32], r7\n    NOP\n    RET\n")

    def flush_probe():
        mem.flush_lines(ORACLE_BASE, ORACLE_LINES)
        mem.probe_lines(ORACLE_BASE, ORACLE_LINES, user)

    def run_loop():
        looping.pc = 0  # a run starts at the machine's pc, left on the HALT
        return run(loop, looping, profile)

    return {
        "memory.flush_probe_256": flush_probe,
        "memory.probe_and_flush_8": lambda: covert_mem.probe_and_flush_lines(PROBE_BASE, 8, user),
        "core.make_machine": lambda: make_machine(profile),
        "core.run_halt": lambda: run(halt, state, profile),
        "core.run_loop": run_loop,
        "isa.assemble": lambda: assemble(source).decoded,
    }


def layer_figures(repeats: int = 1000, samples: int = 7) -> dict:
    """Per layer, the spread() over `samples` of the host time of one call,
    from `repeats` calls timed together, and of the calls per 1000
    reference loops, each sample divided by the mean of three reference
    loops timed right after it, so host drift cancels as in bench/run.py."""
    loop = load_reference_loop()
    figures = {}
    for name, call in _layers().items():
        per_call, per_kref = [], []
        for _ in range(samples):
            t0 = time.perf_counter()
            for _ in range(repeats):
                call()
            elapsed = (time.perf_counter() - t0) / repeats
            t0 = time.perf_counter()
            for _ in range(3):
                loop()
            ref = (time.perf_counter() - t0) / 3
            per_call.append(elapsed * 1e6)
            per_kref.append(1000 * ref / elapsed)
        figures[name] = {"us_per_call": spread(per_call), "calls_per_kref": spread(per_kref)}
    return figures


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
    parser.add_argument("--out", help="the BENCH_<n>.json to write")
    parser.add_argument("--runs", type=int, default=5, help="runs per workload, seeds 1..N")
    parser.add_argument("--seconds", type=float, default=30, help="length of each run")
    parser.add_argument("--compare", help="an earlier BENCH_<n>.json to check against")
    parser.add_argument("--history", action="store_true",
                        help="print the medians of every BENCH_<n>.json and run nothing")
    args = parser.parse_args(argv)
    if args.history:
        print("\n".join(history(ROOT)))
        return 0
    if not args.out:
        parser.error("--out is required unless --history is given")
    if args.runs < 1 or args.seconds <= 0:
        parser.error("--runs must be at least 1 and --seconds positive")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads, traced = {}, {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {}
        for seed in range(1, args.runs + 1):
            runs[seed] = run_benchmark(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: {runs[seed]['metrics']}", file=sys.stderr)
        workloads[workload] = summarize(runs)
        traced[workload] = run_benchmark(workload, 1, args.seconds, trace=1)
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "runs": args.runs,
        "seconds": args.seconds,
        "workloads": workloads,
        "traced": traced,
        "src_lines": _line_counts(),
        "layers": layer_figures(),
        "tier1": tier1_figures(),
    }
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    if not args.compare:
        return 0
    prev = json.loads(Path(args.compare).read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in benchmark["end_to_end"]}
    failures, flags = compare(prev, record, bounds)
    failures += [f"{workload} traced: correct=False" for workload, run in traced.items()
                 if not run["correct"]]
    tier1 = record["tier1"]
    if tier1["exit"] != 0:
        failures.append(f"Tier-1: {tier1['counts']}, exit {tier1['exit']}")
    for name, figure in record["layers"].items():
        if name in prev.get("layers", {}):
            old = prev["layers"][name]["calls_per_kref"]["median"]
            new = figure["calls_per_kref"]["median"]
            print(f"LAYER {name}: {old:.4g} -> {new:.4g} calls_per_kref ({new / old - 1:+.1%})")
    for line in trace_lines(prev, record) + setup_lines(prev, record):
        print(line)
    before = prev.get("tier1")
    before = f"{before['tests']} tests in {before['wall_s']:.1f} s -> " if before else ""
    print(f"TIER1 {before}{tier1['tests']} tests in {tier1['wall_s']:.1f} s")
    for line in flags:
        print(f"FLAG {line}")
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
