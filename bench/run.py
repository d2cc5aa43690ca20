"""Host-time benchmark of transient-sim.

    python3 bench/run.py --workload {matrix,covert,engine} --seed N --seconds S --trace {0,1}

Runs one workload in this process and thread for about S seconds, in whole
rounds of the same operations, checks every output with the independent
checkers in checkers.py, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Before it, a ``digest``
line gives the SHA-256 of one round's simulated statistics; it depends only
on the workload, the seed and the simulator's behaviour, never on its speed.

With ``--trace 0`` the metrics are the end-to-end ones (set-up seconds,
operations per 1000 reference loops of host time, peak resident set).  With
``--trace 1`` the run spends half its time untraced and half with tracer.py's
wrappers installed, and reports the per-layer metrics of the traced half, the
untraced half's raw operations per host second, and the tracing overhead
against the untraced half.  See README.md for the workloads and the reference
loop.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checkers
import inputs
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-up is timed again after every round, at least this many times in all,
# and its median reported: host speed drifts over seconds, so samples spread
# over the run are steadier than samples taken back to back.
MIN_SETUPS = 5
MODULES = ("isa", "core", "memory", "attacks", "covert", "mitigations", "profiles", "reporting")

# matrix
SECRETS_PER_ROUND = 3
SECRET_LENGTH = 3
MITIGATIONS = {
    "none": {},
    "privileged_flush": {"privileged_flush": True},
    "rsb_flush_on_cs+btb_fallback_disabled": {"rsb_flush_on_cs": True,
                                              "btb_fallback_disabled": True},
    "rsb_refill_on_cs": {"rsb_refill_on_cs": True},
}

# covert
CLEAN_PAYLOAD = 256  # bytes per noise-free transfer
NOISY_PAYLOAD = 768
NOISE_P = 0.05
RECORD_BITS = 6

# engine
ACYCLIC_PROGRAMS = 120
LOOP_PROGRAMS = 1
POINTER_PROGRAMS = 60
# The store-order replay fault: a store whose address resolves late squashes
# everything younger than itself but refetches from the violating load, so
# the ops in between are lost.  Only the store-to-load speculating cores
# replay, and only the pointer programs store through a late address.
KNOWN_FAULT_KIND = "pointer"
KNOWN_FAULT_PROFILES = ("cortex_a72", "intel_i7")

END_TO_END = {"setup_s": "s", "ops_per_kref": "1/kref", "peak_rss_mb": "MB"}

# The host's speed drifts by a fifth or more within seconds, and by as much
# between the 30-second windows of two runs (see README.md).  So the timed
# work is cut into slices of at least SLICE_S host seconds, the fixed
# reference loop below is timed right after each slice, once per SLICE_S of
# the slice, and a slice counts as its host time divided by the mean time of
# those loops.  The drift moves both alike and cancels; a faster simulator
# still does more operations per reference loop.
SLICE_S = 0.1


class _RefLine:
    def __init__(self, tag: int):
        self.tag = tag


class _RefCache:
    """A small set-associative LRU cache, in the simulator's own style."""

    def __init__(self, sets: int, ways: int):
        self.sets = [[] for _ in range(sets)]
        self.ways = ways
        self.cells: dict = {}
        self.hits = 0

    def touch(self, addr: int) -> int:
        tag = addr >> 6
        lines = self.sets[tag % len(self.sets)]
        for i, line in enumerate(lines):
            if line.tag == tag:
                lines.append(lines.pop(i))
                self.hits += 1
                break
        else:
            if len(lines) >= self.ways:
                lines.pop(0)
            lines.append(_RefLine(tag))
        return self.cells.get(addr, 0)


def reference_loop() -> int:
    """Fixed pure-Python work, about 3.5 ms here: dict traffic, int arithmetic
    and string formatting, then a small cache model's method calls, object
    allocation and list shuffling.  It must never change, or ops_per_kref
    figures measured before and after the change cannot be compared."""
    counts: dict = {}
    total = 0
    for i in range(5000):
        key = i & 255
        counts[key] = counts.get(key, 0) + i
        total += len(str(i))
    cache = _RefCache(64, 8)
    x = 12345
    for i in range(1250):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += cache.touch(x & 0xFFFF)
        cache.cells[x & 0x3FFF] = i
    return total


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


@dataclass
class Unit:
    """One timed step of a round: `run` is timed, `check` is not.  `check`
    returns (failed operations, problems, simulated statistics as text)."""

    ops: int
    run: Callable
    check: Callable


@dataclass
class Workload:
    units: list
    latency_grid_cells: int = 0  # per round; only the covert workload records a grid

    @property
    def ops_per_round(self) -> int:
        return sum(u.ops for u in self.units)


# -- matrix -----------------------------------------------------------------------


def matrix_workload(pkg, seed: int) -> Workload:
    grids = {}
    for label, flags in MITIGATIONS.items():
        mit = pkg.mitigations.MitigationSet(**flags)
        grids[label] = [pkg.mitigations.apply_mitigations(pkg.profiles.get_profile(name), mit)
                        for name in checkers.PROFILE_ORDER]
    cells = len(checkers.PAPER_GRID) * len(checkers.PROFILE_ORDER)
    units = []
    for k, secret in enumerate(inputs.secrets(seed, SECRETS_PER_ROUND, SECRET_LENGTH)):
        for label, profiles in grids.items():
            units.append(_matrix_unit(pkg, label, profiles, secret, seed + k, cells))
    return Workload(units)


def _matrix_unit(pkg, label, profiles, secret, run_seed, cells) -> Unit:
    def run():
        results = pkg.attacks.run_matrix(profiles, secret=secret, seed=run_seed)
        report = pkg.reporting.SuiteReport(results, run_seed)
        return results, pkg.reporting.emit_report(report, "json")

    def check(out):
        results, text = out
        problems = checkers.check_grid(results, label, secret)
        problems += checkers.check_grid_json(json.loads(text), results)
        recovered = [[o.recovered for o in row.values()] for row in results.values()]
        return 0, problems, f"{text}{recovered}"

    return Unit(cells, run, check)


# -- covert -----------------------------------------------------------------------


def covert_workload(pkg, seed: int) -> Workload:
    cv = pkg.covert
    get = pkg.profiles.get_profile
    i7, a72, a9 = get("intel_i7"), get("cortex_a72"), get("cortex_a9")
    clean = inputs.payload(seed, CLEAN_PAYLOAD)
    noisy = inputs.payload(seed + 1, NOISY_PAYLOAD)
    units = []
    for prof in (i7, a72):
        for bits in range(1, 7):
            units.append(_channel_unit(
                lambda p=prof, b=bits: cv.run_channel(p, cv.ChannelConfig(bits_per_cs=b), clean, seed=seed),
                clean, bits, lambda r, b=bits: checkers.check_clean_transfer(r, clean, b)))
    # The interloper stream comes from run_channel's default seed (7), not
    # from --seed, so the 2.576-sigma check, a 99% test, gives the same
    # verdict on every run; the noisy payload still follows --seed.
    units.append(_channel_unit(
        lambda: cv.run_channel(i7, cv.ChannelConfig(bits_per_cs=3, noise_probability=NOISE_P),
                               noisy),
        noisy, 3, lambda r: checkers.check_noisy_transfer(r, noisy, 3, NOISE_P)))
    units.append(_channel_unit(
        lambda: cv.run_channel(a9, cv.ChannelConfig(bits_per_cs=3), clean, seed=seed),
        clean, 3, lambda r: checkers.check_dark_transfer(r, clean, 3)))

    threshold = (i7.latencies.l1_hit + i7.latencies.dram) // 2
    written = []

    def record():
        report = cv.run_channel(i7, cv.ChannelConfig(bits_per_cs=RECORD_BITS), clean,
                                seed=seed, record_latencies=True)
        return report, cv.latency_trace_to_csv(report)

    def check_record(out):
        report, csv_text = out
        if not written:
            OUT.mkdir(exist_ok=True)
            (OUT / "covert-latency.csv").write_text(csv_text)
            written.append(True)
        problems = checkers.check_clean_transfer(report, clean, RECORD_BITS)
        problems += checkers.check_latency_grid(report.latencies, csv_text, clean,
                                                RECORD_BITS, threshold)
        return 0, problems, _channel_stats(report) + hashlib.sha256(csv_text.encode()).hexdigest()

    symbols = len(checkers.symbols_of(clean, RECORD_BITS))
    units.append(Unit(symbols, record, check_record))
    return Workload(units, symbols << RECORD_BITS)


def _channel_stats(report) -> str:
    return (f"{report.profile} b={report.bits_per_cs} cycles={report.total_cycles} "
            f"erasures={report.erasures} errors={report.symbol_errors}/{report.bit_errors} "
            f"decoded={report.decoded.hex()}")


def _channel_unit(run, message, bits, checker) -> Unit:
    def check(report):
        return 0, checker(report), _channel_stats(report)

    return Unit(len(checkers.symbols_of(message, bits)), run, check)


# -- engine -----------------------------------------------------------------------


def engine_workload(pkg, seed: int) -> Workload:
    profiles = [pkg.profiles.get_profile(name) for name in checkers.PROFILE_ORDER]
    programs = inputs.engine_inputs(seed, ACYCLIC_PROGRAMS, LOOP_PROGRAMS, POINTER_PROGRAMS)
    return Workload([unit for inp in programs for unit in _engine_units(pkg, profiles, inp)])


def _engine_units(pkg, profiles, inp) -> list:
    """One unit per core.  The program is assembled inside the first core's
    operation; a unit per core keeps the loop program's runs (about 0.6 s
    each) short enough for the reference loop to follow the host's drift."""
    mem = dict(inp.mem)
    sysregs = dict(inp.sysregs)
    shared = {}

    def unit(first, name, prof):
        def run():
            if first:
                shared["program"] = pkg.isa.assemble(inp.text)
            state = pkg.core.make_machine(prof)
            state.regs = list(inp.regs)
            state.mem.cells = dict(mem)
            state.sysregs = dict(sysregs)
            trace = pkg.core.run(shared["program"], state, prof)
            return {
                "regs": state.regs, "flags": state.flags, "pc": state.pc,
                "mem": state.mem.cells, "halted": trace.halted, "abort": trace.abort,
                "stats": (trace.cycles, len(trace.retired_seqs), len(trace.squashed_seqs),
                          trace.mispredicts),
            }

        def check(got):
            if "expected" not in shared:
                shared["expected"] = checkers.interpret(shared["program"], inp.regs, mem, sysregs)
            wrong = checkers.check_engine_run(shared["expected"], got)
            problems = []
            if wrong and not (inp.kind == KNOWN_FAULT_KIND and name in KNOWN_FAULT_PROFILES):
                problems.append(f"{inp.kind} program on {name}: {'; '.join(wrong)}")
            return int(bool(wrong)), problems, f"{name} {got['stats']} {'mismatch' if wrong else 'ok'}"

        return Unit(1, run, check)

    return [unit(k == 0, name, prof)
            for k, (name, prof) in enumerate(zip(checkers.PROFILE_ORDER, profiles))]


WORKLOADS = {"matrix": matrix_workload, "covert": covert_workload, "engine": engine_workload}


# -- measurement --------------------------------------------------------------------


def import_package():
    """A fresh import of the package from this checkout's src/."""
    for name in [m for m in sys.modules if m.split(".")[0] == "transient_sim"]:
        del sys.modules[name]
    pkg = importlib.import_module("transient_sim")
    for name in MODULES:
        importlib.import_module(f"transient_sim.{name}")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"transient_sim imported from {pkg.__file__}, not from {SRC}")
    return pkg


@dataclass
class Phase:
    seconds: float = 0.0  # host time inside the timed operations
    refs: float = 0.0  # the same time in reference loops, slice by slice
    ref_times: list = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)

    def ops_per_s(self) -> float:
        return self.attempted / self.seconds

    def ops_per_kref(self) -> float:
        return 1000 * self.attempted / self.refs


def run_phase(work: Workload, seconds: float, after_round: Callable) -> Phase:
    clock = time.perf_counter
    phase = Phase()
    pending = 0.0  # host time of the slice not yet set against a reference loop

    def end_slice():
        nonlocal pending
        refs = [time_reference() for _ in range(max(1, round(pending / SLICE_S)))]
        phase.ref_times += refs
        phase.refs += pending / statistics.fmean(refs)
        pending = 0.0

    time_reference()  # warm-up
    start = clock()
    while phase.rounds == 0 or clock() - start < seconds:
        digest = hashlib.sha256()
        for unit in work.units:
            t0 = clock()
            out = unit.run()
            elapsed = clock() - t0
            phase.seconds += elapsed
            pending += elapsed
            if pending >= SLICE_S:
                end_slice()
            failed, problems, stats = unit.check(out)
            phase.attempted += unit.ops
            phase.failed += failed
            phase.problems += problems
            digest.update(stats.encode() + b"\n")
        if pending:
            end_slice()
        phase.digests.append(digest.hexdigest())
        phase.rounds += 1
        after_round()
    return phase


def layer_metrics(tracer: Tracer, work: Workload, traced: Phase, untraced: Phase,
                  setups: list) -> dict:
    calls, total, self_time, sim = tracer.calls, tracer.total, tracer.self_time, tracer.sim
    rounds = traced.rounds

    def per_call(name, scale):
        return total[name] * scale / calls[name] if calls[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    grids = calls["attacks.run_matrix"] * len(checkers.PAPER_GRID) * len(checkers.PROFILE_ORDER)
    decodes = calls["covert.receiver_decode"]
    m = {
        "setup.import_s": (statistics.median(s[0] for s in setups), "s"),
        "setup.inputs_s": (statistics.median(s[1] for s in setups), "s"),
        "isa.assemble.calls": (calls["isa.assemble"] / rounds, "count"),
        "isa.assemble.us_per_call": (per_call("isa.assemble", 1e6), "us"),
        "core.run.calls": (calls["core.run"] / rounds, "count"),
        "core.run.self_s": (self_time["core.run"] / rounds, "s"),
        "core.retired_per_s": (ratio(sim["retired"], total["core.run"]), "1/s"),
        "core.sim_cycles_per_s": (ratio(sim["cycles"], total["core.run"]), "1/s"),
        "core.events_per_retired": (ratio(sim["events"], sim["retired"]), "ratio"),
        "core.squashed_per_dispatched": (
            ratio(sim["squashed"], sim["retired"] + sim["squashed"]), "ratio"),
        "memory.access.calls": (calls["memory.access"] / rounds, "count"),
        "memory.access.ns_per_call": (per_call("memory.access", 1e9), "ns"),
        "memory.flush_line.calls": (calls["memory.flush_line"] / rounds, "count"),
        "memory.flush_line.ns_per_call": (per_call("memory.flush_line", 1e9), "ns"),
        "memory.fill.calls": (calls["memory.fill"] / rounds, "count"),
        "attacks.flush_reload.calls": (calls["attacks.flush_reload"] / rounds, "count"),
        "attacks.flush_reload.self_s": (self_time["attacks.flush_reload"] / rounds, "s"),
        "attacks.cell.ms": (ratio(total["attacks.run_matrix"] * 1e3, grids), "ms"),
        "covert.receiver_decode.us_per_symbol": (per_call("covert.receiver_decode", 1e6), "us"),
        "covert.sender_inject.us_per_symbol": (per_call("covert.sender_inject", 1e6), "us"),
        "covert.probe_lines_per_symbol": (
            ratio(tracer.nested[("covert.receiver_decode", "memory.access")], decodes), "count"),
        "covert.latency_grid_cells": (work.latency_grid_cells, "count"),
        "reporting.emit_report.ms": (per_call("reporting.emit_report", 1e3), "ms"),
        "trace.overhead": (untraced.ops_per_kref() / traced.ops_per_kref(), "ratio"),
        "host.ops_per_s": (untraced.ops_per_s(), "1/s"),
        "host.ref_loop_ms": (statistics.median(untraced.ref_times) * 1e3, "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    setups = []

    def setup():
        t0 = time.perf_counter()
        pkg = import_package()
        t1 = time.perf_counter()
        work = WORKLOADS[args.workload](pkg, args.seed)
        setups.append((t1 - t0, time.perf_counter() - t1))
        return pkg, work

    try:
        pkg, work = setup()
    except ImportError as exc:
        print(f"error: cannot import the simulator: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        untraced = run_phase(work, args.seconds / 2, setup)
        tracer = Tracer(pkg)
        tracer.install()
        try:
            phase = run_phase(work, args.seconds / 2, setup)
        finally:
            tracer.uninstall()
        runs = (untraced, phase)
    else:
        phase = run_phase(work, args.seconds, setup)
        runs = (phase,)
    while len(setups) < MIN_SETUPS:
        setup()

    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
        metrics = layer_metrics(tracer, work, phase, untraced, setups)
    else:
        metrics = {
            "setup_s": statistics.median(a + b for a, b in setups),
            "ops_per_kref": phase.ops_per_kref(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    problems = [p for r in runs for p in r.problems]
    digests = {d for r in runs for d in r.digests}
    if len(digests) != 1:
        problems.append(f"simulated statistics differ between rounds ({len(digests)} digests)")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"digest {args.workload} seed={args.seed} sha256={phase.digests[0]}")
    print(f"rounds {sum(r.rounds for r in runs)} ops_per_round {work.ops_per_round} "
          f"host_ops_per_s {runs[0].ops_per_s():.2f}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
