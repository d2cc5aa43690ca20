"""README's table of modeled cores against the bundled profiles."""

from pathlib import Path

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
