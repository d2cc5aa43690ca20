"""README's table of modeled cores, its library example and the code names it
cites against the code."""

import ast
import importlib
import re
import sys
from pathlib import Path
from types import ModuleType

import transient_sim
from transient_sim.profiles import (
    PROFILES,
    ExceptionPolicy,
    PipelineKind,
    RsbUnderflow,
    SquashPolicy,
)

README = Path(__file__).resolve().parent.parent / "README.md"

_SQUASHED_FILLS = {
    SquashPolicy.CANCEL_INFLIGHT_FILLS: "cancelled",
    SquashPolicy.KEEP_INFLIGHT_FILLS: "kept",
}
_UNDERFLOW = {
    RsbUnderflow.STOP_PREDICTING: "stop predicting",
    RsbUnderflow.RING_BUFFER: "ring buffer",
    RsbUnderflow.SWITCH_TO_BTB: "fall back to BTB",
}
_FAULTING_LOADS = {
    ExceptionPolicy.DEFERRED_FORWARD_ZERO: "zero",
    ExceptionPolicy.DEFERRED_FORWARD_VALUE: "forward value",
}


def _core_table() -> dict:
    """profile -> its row's cells, from the table under "The modeled cores"."""
    section = README.read_text(encoding="utf-8").split("## The modeled cores", 1)[1]
    rows = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = cells[1:]
    return rows


def test_core_table_matches_profiles():
    table = _core_table()
    assert set(table) == set(PROFILES)
    for name, prof in PROFILES.items():
        in_order = prof.pipeline is PipelineKind.IN_ORDER
        want = [
            prof.pipeline.value,
            "n/a" if in_order else _SQUASHED_FILLS[prof.squash_policy],
            _UNDERFLOW[prof.rsb_underflow],
            _FAULTING_LOADS[prof.exception_policy],
        ]
        assert table[name] == want, name


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["trace"].halted and scope["full"].halted
    assert scope["state"].regs[1] == 5
    assert scope["trace"].events == []  # nothing predicted, squashed, filled or faulted
    assert {kind for _c, kind, _t, _a in scope["full"].events} == {"fetch", "execute", "retire"}


# A backticked dotted name such as `MemorySystem.probe_lines` or
# `Trace.to_json()`; file names such as `config.py` are not code names.
_CODE_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")
_FILE_SUFFIXES = {"py", "md", "json", "csv"}


def _resolve(dotted: str):
    """The attribute `dotted` names, its head looked up on the package, then
    on each of its imported modules, and last as a module of the package,
    imported if no test has imported it yet."""
    head, *rest = dotted.split(".")
    modules = [v for v in vars(transient_sim).values() if isinstance(v, ModuleType)]
    owner = next((o for o in (transient_sim, *modules) if hasattr(o, head)), None)
    if owner is None:
        obj = importlib.import_module(f"transient_sim.{head}")
    else:
        obj = getattr(owner, head)
    for part in rest:
        obj = getattr(obj, part)
    return obj


# A backticked name without a dot, such as `_raise` or `retire_at`.
_BARE_NAME = re.compile(r"`([A-Za-z_]\w*)(?:\(\))?`")
# Backticked words that name no code: the bundled cores, CLI commands and
# values, the seed's environment variable, trace event kinds, register
# tokens and a builtin.
_VOCABULARY = {
    *PROFILES, "attack", "covert", "matrix", "pagefault", "TRANSIENT_SIM_SEED",
    "fetch", "execute", "retire", "squash", "r0", "r01", "r15", "r16", "s0", "s15", "int",
}


def _defined_names() -> set:
    """Every name the package's source defines at module level, in a class
    body (dataclass fields and __slots__ entries too) or as a self.
    attribute."""
    names = set()
    for path in Path(transient_sim.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for statement in [*tree.body, *(s for cls in classes for s in cls.body)]:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names.add(statement.name)
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            else:
                targets = [statement.target] if isinstance(statement, ast.AnnAssign) else []
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    names |= {c.value for c in ast.walk(statement.value)
                              if isinstance(c, ast.Constant) and isinstance(c.value, str)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return names


def _missing_names(text: str) -> list:
    """The code names `text` cites that the package does not define."""
    dotted = {
        name for name in _CODE_NAME.findall(text) if name.rsplit(".", 1)[1] not in _FILE_SUFFIXES
    }
    missing = []
    for name in sorted(dotted):
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    return missing + sorted(set(_BARE_NAME.findall(text)) - _defined_names() - _VOCABULARY)


def test_cited_code_names_exist():
    text = README.read_text(encoding="utf-8")
    assert {"MemorySystem.probe_and_flush_lines", "covert.receiver_decode",
            "Latencies.hit_threshold"} <= set(_CODE_NAME.findall(text))
    assert {"_raise", "retire_at", "dispatch_ready", "benign_return_pc"} <= set(
        _BARE_NAME.findall(text))
    assert _missing_names(text) == []


def test_a_deleted_name_fails_the_check():
    line = "A faulting op is retired by `_retire`, and `_raise` squashes the rest."
    assert _missing_names(line) == ["_retire"]
    assert _missing_names("`Rsb.pop` and `Rsb.drop`") == ["Rsb.drop"]


def test_a_module_no_test_imported_still_resolves(monkeypatch):
    # the package's __init__ does not import config; run alone, the check
    # must not depend on another test having imported it
    monkeypatch.delitem(sys.modules, "transient_sim.config", raising=False)
    monkeypatch.delattr(transient_sim, "config", raising=False)
    assert _resolve("config.mitigation_set").__name__ == "mitigation_set"
    assert _missing_names("`config.mitigation_set` and `config.no_such_name`") == [
        "config.no_such_name"]
    assert _missing_names("`no_such_module.name`") == ["no_such_module.name"]
