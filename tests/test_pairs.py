"""tools/pairs.py: the alternating-pairs protocol on canned benchmark output."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)  # which puts tools/ on sys.path

from trajectory import parse_run  # noqa: E402

_METRICS = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]


def _output(seed, ops, rss=30.0, setup=0.035, correct=True, failed=0, digest=None):
    """What bench/run.py prints for one run."""
    result = {"correct": correct, "attempted": 9050, "failed": failed, "metrics": {
        "setup_s": {"value": setup, "unit": "s"},
        "ops_per_kref": {"value": ops, "unit": "1/kref"},
        "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return (f"digest engine seed={seed} sha256={digest or f'{seed:064x}'}\n"
            f"rounds 10 ops_per_round 905 host_ops_per_s 1000.00\n{json.dumps(result)}\n")


def _fake_runner(calls, outputs, seen=None):
    """A run_benchmark that reads canned output: outputs maps (side, seed)
    to _output() keyword arguments, where side is the checkout's name.  With
    `seen`, it also records each checkout's lever.txt."""
    def run(workload, seed, seconds, trace=0, root=None):
        calls.append((root.name, seed, workload, seconds, trace))
        if seen is not None:
            seen.append((root.name, (root / "lever.txt").read_text()))
        return parse_run(_output(seed, **outputs[root.name, seed]))
    return run


def _run(monkeypatch, tmp_path, outputs, argv=(), seen=None):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    calls = []
    monkeypatch.setattr(pairs, "run_benchmark", _fake_runner(calls, outputs, seen))
    code = pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "engine",
                       "--first-seed", "41", *argv])
    return code, calls


def test_pairs_alternate_sides_over_consecutive_seeds(monkeypatch, tmp_path, capsys):
    outputs = {(side, seed): {"ops": 4000.0 + seed + (300 if side == "change" else 0)}
               for side in ("parent", "change") for seed in range(41, 51)}
    code, calls = _run(monkeypatch, tmp_path, outputs)
    assert code == 0
    # ten pairs by default, of 30 s untraced runs, the parent first in odd pairs
    assert [(side, seed) for side, seed, *_ in calls] == [
        pair for seed in range(41, 51)
        for pair in ([("parent", seed), ("change", seed)] if seed % 2 else
                     [("change", seed), ("parent", seed)])]
    assert {tuple(rest) for _, _, *rest in calls} == {("engine", 30, 0)}
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "engine: 10 pairs, seeds 41-50, 30 s runs"
    assert out[1] == ("ops_per_kref (higher is better, bound 25%): parent 4045.5 (4042.75-4048.25) "
                      "change 4345.5 (4342.75-4348.25) +7.42%, wins 10/10, gap/IQR +54.55")
    assert out[2].startswith("setup_s") and out[3].startswith("peak_rss_mb")
    assert all(line.endswith("+0.00%, wins 0/10, gap/IQR 0") for line in out[2:4])
    assert not any(line.startswith(("FLAG", "FAIL")) for line in out)


def test_ties_count_for_neither_side_and_a_worse_median_is_flagged():
    results = []
    for seed, (before, after) in enumerate([(30.0, 30.0), (30.0, 40.0), (31.0, 39.0),
                                            (32.0, 31.0)]):
        parent = parse_run(_output(seed, 4000.0, rss=before))
        change = parse_run(_output(seed, 4000.0, rss=after))
        results.append((seed, parent, change))
    lines, flags, failures = pairs.report(results, _METRICS)
    rss = next(line for line in lines if line.startswith("peak_rss_mb"))
    assert "wins 1/4" in rss and "gap/IQR -" in rss
    assert flags == ["peak_rss_mb: median 30.5 -> 35, worse by more than 5%"]
    assert failures == []


@pytest.mark.parametrize("change, failure", [
    ({"digest": "bf5dfbe7" * 8}, "seed 42: digest 00000000... -> bf5dfbe7..."),
    ({"correct": False}, "seed 42: the change run is not correct"),
    ({"failed": 3}, "the change failed 3 operations, the parent 0"),
])
def test_a_changed_digest_an_incorrect_run_or_more_failures_exit_1(
        monkeypatch, tmp_path, capsys, change, failure):
    outputs = {(side, seed): {"ops": 4000.0} for side in ("parent", "change") for seed in (41, 42)}
    outputs["change", 42].update(change)
    code, _ = _run(monkeypatch, tmp_path, outputs, ["--pairs", "2"])
    assert code == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL {failure}"]


def test_equal_failures_on_both_sides_pass(monkeypatch, tmp_path):
    outputs = {(side, 41): {"ops": 4000.0, "failed": 2} for side in ("parent", "change")}
    code, _ = _run(monkeypatch, tmp_path, outputs, ["--pairs", "1"])
    assert code == 0


def test_the_run_length_is_always_the_benchmarks(monkeypatch, tmp_path):
    outputs = {(side, 41): {"ops": 4000.0} for side in ("parent", "change")}
    with pytest.raises(SystemExit):
        _run(monkeypatch, tmp_path, outputs, ["--pairs", "1", "--seconds", "5"])


_LEVER = ("--- a/lever.txt\n+++ b/lever.txt\n@@ -1 +1 @@\n-without\n+with\n")


def _run_with_variant(monkeypatch, tmp_path, outputs, argv=(), lever="with\n"):
    """_run() with --variant: the change's lever.txt is `lever`, and the
    patch turns "without" into "with".  Returns (exit code, calls, the
    lever.txt each run saw)."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "lever.txt").write_text("without\n" if side == "parent" else lever)
    (tmp_path / "lever.patch").write_text(_LEVER)
    seen = []
    code, calls = _run(monkeypatch, tmp_path, outputs,
                       ["--variant", str(tmp_path / "lever.patch"), *argv], seen)
    return code, calls, seen


def test_a_variant_runs_between_the_pairs_sides_with_the_patch_reverted(
        monkeypatch, tmp_path, capsys):
    ops = {"parent": 4000.0, "change": 4400.0, "variant": 4200.0}
    outputs = {(side, seed): {"ops": ops[side] + seed}
               for side in ops for seed in range(41, 45)}
    code, _, seen = _run_with_variant(monkeypatch, tmp_path, outputs, ["--pairs", "4"])
    assert code == 0
    # the change always runs second; the variant last in odd pairs
    assert [side for side, _ in seen] == ["parent", "change", "variant",
                                          "variant", "change", "parent"] * 2
    assert {text for side, text in seen if side == "variant"} == {"without\n"}
    assert {text for side, text in seen if side == "change"} == {"with\n"}
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("ops_per_kref") and "+9.89%, wins 4/4" in out[1]
    assert out[4] == f"variant: the change with {tmp_path / 'lever.patch'} reverted"
    assert out[5] == ("ops_per_kref (higher is better, bound 25%): "
                      "variant 4242.5 (4241.25-4243.75) change 4442.5 (4441.25-4443.75) "
                      "+4.71%, wins 4/4, gap/IQR +80.00")
    assert out[6].startswith("setup_s") and out[7].startswith("peak_rss_mb")
    assert len(out) == 8


def test_a_variant_digest_or_failure_is_a_failure_of_its_own(monkeypatch, tmp_path, capsys):
    outputs = {(side, seed): {"ops": 4000.0} for side in ("parent", "change", "variant")
               for seed in (41, 42)}
    outputs["variant", 42].update(digest="bf5dfbe7" * 8, failed=1)
    outputs["change", 41].update(failed=1)
    code, _, _ = _run_with_variant(monkeypatch, tmp_path, outputs, ["--pairs", "2"])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith(("FLAG", "FAIL"))] == [
        "FAIL the change failed 1 operations, the parent 0",
        "FAIL variant seed 42: digest bf5dfbe7... -> 00000000...",
    ]


def test_a_patch_that_does_not_revert_is_a_usage_error(monkeypatch, tmp_path, capsys):
    outputs = {(side, 41): {"ops": 4000.0} for side in ("parent", "change", "variant")}
    with pytest.raises(SystemExit) as exc:
        _run_with_variant(monkeypatch, tmp_path, outputs, ["--pairs", "1"], lever="other\n")
    assert exc.value.code == 2
    assert "does not revert" in capsys.readouterr().err
