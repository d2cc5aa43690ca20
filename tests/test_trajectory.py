"""tools/trajectory.py: reading the benchmark's output and comparing files."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "trajectory.py"
_SPEC = importlib.util.spec_from_file_location("trajectory", _PATH)
trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory)

_OUTPUT = """\
digest engine seed=1 sha256=6f007b82aa
rounds 12 ops_per_round 905 host_ops_per_s 1041.20
{"correct": true, "attempted": 10860, "failed": 0, "metrics": {"setup_s": {"value": 0.07, \
"unit": "s"}, "ops_per_kref": {"value": 3500.0, "unit": "1/kref"}, "peak_rss_mb": \
{"value": 30.4, "unit": "MB"}}}
"""

_BOUNDS = {"ops_per_kref": (0.25, "higher"), "peak_rss_mb": (0.05, "lower")}


def _entry(ops, rss, digest="6f007b82aa", correct=True):
    run = trajectory.parse_run(_OUTPUT)
    run["metrics"].update(ops_per_kref=ops, peak_rss_mb=rss)
    run.update(digest=digest, correct=correct)
    return {"workloads": {"engine": trajectory.summarize({1: run})}}


def test_parse_run_reads_the_digest_and_the_last_json_line():
    assert trajectory.parse_run(_OUTPUT) == {
        "digest": "6f007b82aa", "correct": True, "attempted": 10860, "failed": 0,
        "metrics": {"setup_s": 0.07, "ops_per_kref": 3500.0, "peak_rss_mb": 30.4},
    }


def test_parse_run_rejects_output_without_a_digest():
    with pytest.raises(ValueError):
        trajectory.parse_run(_OUTPUT.split("\n", 1)[1])


def test_summarize_gives_median_and_quartiles():
    runs = {}
    for seed, ops in enumerate([3000.0, 3400.0, 3200.0, 3600.0, 3100.0], 1):
        run = trajectory.parse_run(_OUTPUT)
        run["metrics"]["ops_per_kref"] = ops
        runs[seed] = run
    entry = trajectory.summarize(runs)["metrics"]["ops_per_kref"]
    assert entry["median"] == 3200.0
    assert entry["iqr"] == [3050.0, 3500.0]


def test_compare_fails_on_a_changed_digest_and_flags_a_worse_median():
    base = _entry(3500.0, 30.0)
    assert trajectory.compare(base, _entry(3000.0, 31.0), _BOUNDS) == ([], [])
    failures, flags = trajectory.compare(base, _entry(2500.0, 32.0, digest="bf5dfbe7"), _BOUNDS)
    assert [line.split(":")[0] for line in failures] == ["engine seed 1"]
    assert [line.split(":")[0] for line in flags] == ["engine ops_per_kref", "engine peak_rss_mb"]
    failures, _ = trajectory.compare(base, _entry(3500.0, 30.0, correct=False), _BOUNDS)
    assert failures == ["engine: 0 failed, correct=False"]


def test_layer_figures_time_each_layer_against_the_reference_loop():
    figures = trajectory.layer_figures(repeats=2, samples=2)
    assert sorted(figures) == ["core.make_machine", "core.run_halt", "core.run_loop",
                               "isa.assemble", "memory.flush_probe_256",
                               "memory.probe_and_flush_8"]
    for figure in figures.values():
        for entry in figure.values():
            assert len(entry["runs"]) == 2 and min(entry["runs"]) > 0
            assert entry["iqr"][0] <= entry["median"] <= entry["iqr"][1]


def test_parse_pytest_summary_reads_the_outcome_counts():
    output = ("....F.\n=== acceptance criteria ===\nPASS criterion 1: done in 2 steps\n"
              "1 failed, 476 passed, 2 skipped in 14.02s\n")
    assert trajectory.parse_pytest_summary(output) == {"failed": 1, "passed": 476, "skipped": 2}
    assert trajectory.parse_pytest_summary("477 passed in 13.67s\n") == {"passed": 477}
    with pytest.raises(ValueError):
        trajectory.parse_pytest_summary("no tests ran\n")


_TRACED_OUTPUT = """\
digest engine seed=1 sha256=6f007b82aa
rounds 10 ops_per_round 905 host_ops_per_s 1012.75
{"correct": true, "attempted": 9050, "failed": 0, "metrics": {"core.run.calls": {"value": 905.0, \
"unit": "count"}, "core.retired_per_s": {"value": 288000.0, "unit": "1/s"}, \
"covert.receiver_decode.us_per_symbol": {"value": 0.0, "unit": "us"}, "trace.overhead": \
{"value": 1.8, "unit": "ratio"}}}
"""


def test_a_traced_run_gives_its_per_layer_metrics_and_trace_lines():
    run = trajectory.parse_run(_TRACED_OUTPUT)
    assert run["digest"] == "6f007b82aa" and run["correct"] and run["attempted"] == 9050
    assert run["metrics"] == {"core.run.calls": 905.0, "core.retired_per_s": 288000.0,
                              "covert.receiver_decode.us_per_symbol": 0.0,
                              "trace.overhead": 1.8}
    prev = {"traced": {"engine": dict(run, metrics=dict(run["metrics"],
                                                        **{"core.retired_per_s": 240000.0}))}}
    del prev["traced"]["engine"]["metrics"]["trace.overhead"]
    assert trajectory.trace_lines(prev, {"traced": {"engine": run}}) == [
        "TRACE engine core.run.calls: 905 -> 905 (+0.0%)",
        "TRACE engine core.retired_per_s: 2.4e+05 -> 2.88e+05 (+20.0%)",
        "TRACE engine covert.receiver_decode.us_per_symbol: 0 -> 0",
    ]
    assert trajectory.trace_lines({}, {"traced": {"engine": run}}) == []


def test_history_prints_every_file_in_ascending_n(tmp_path):
    for n, commit, ops, dirty in ((10, "c1ec76652d8b8ffc", 4172.05, True),
                                  (9, "7ce3d8ca7c6b361e", 3853.16, False)):
        record = dict(_entry(ops, 30.45), commit=commit, dirty=dirty)
        (tmp_path / f"BENCH_{n}.json").write_text(json.dumps(record), encoding="utf-8")
    (tmp_path / "BENCH_old.json").write_text("not a record", encoding="utf-8")
    assert trajectory.history(tmp_path) == [
        "BENCH_9 7ce3d8ca7c6b engine ops_per_kref=3853.16 peak_rss_mb=30.45 setup_s=0.07",
        "BENCH_10 c1ec76652d8b-dirty engine ops_per_kref=4172.05 peak_rss_mb=30.45 setup_s=0.07",
    ]
    assert trajectory.history(tmp_path / "empty") == []


def test_setup_lines_set_setup_s_beside_the_hosts_reference_loop():
    prev, cur = _entry(3500.0, 30.0), _entry(3500.0, 30.0)
    prev["workloads"]["engine"]["metrics"]["setup_s"]["median"] = 0.04
    cur["workloads"]["engine"]["metrics"]["setup_s"]["median"] = 0.07
    # without traced runs, only the raw figures
    assert trajectory.setup_lines(prev, cur) == ["SETUP engine setup_s: 0.04 -> 0.07 s (+75.0%)"]
    prev["traced"] = {"engine": {"metrics": {"host.ref_loop_ms": 2.0}}}
    cur["traced"] = {"engine": {"metrics": {"host.ref_loop_ms": 4.0}}}
    assert trajectory.setup_lines(prev, cur) == [
        "SETUP engine setup_s: 0.04 -> 0.07 s (+75.0%); host.ref_loop_ms x2.00; "
        "setup_s / host.ref_loop_ms: 20 -> 17.5 reference loops (-12.5%)"]
    # the raw medians still decide the FLAG
    bounds = {"setup_s": (0.25, "lower")}
    assert trajectory.compare(prev, cur, bounds)[1] == [
        "engine setup_s: median 0.04 -> 0.07, worse by more than 25%"]
    assert trajectory.setup_lines({"workloads": {}}, cur) == []
