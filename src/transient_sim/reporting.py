"""Result types and serialization for the experiment runner.

Every emitter is deterministic: the same report object serializes to the
same bytes, so suite runs can be diffed and CI-gated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .attacks import (
    EXPECTED_SUSCEPTIBILITY,
    AttackOutcome,
    matrix_mismatches,
    matrix_susceptibility,
)
from .covert import ChannelReport


@dataclass
class SuiteReport:
    """A full susceptibility-matrix run plus its diff against the golden data."""

    results: dict  # cell -> profile name -> AttackOutcome
    seed: int

    @property
    def susceptibility(self) -> dict:
        return matrix_susceptibility(self.results)

    @property
    def mismatches(self) -> list:
        return matrix_mismatches(self.results)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "susceptibility": self.susceptibility,
            "mismatches": [
                {"cell": c, "profile": p, "expected": e, "actual": a}
                for c, p, e, a in self.mismatches
            ],
        }


def _yn(value: bool) -> str:
    return "Y" if value else "N"


# The fields each single-record report shows in its table and CSV forms.
_ATTACK_KEYS = ("variant", "profile", "scenario", "success", "recovered_hex", "expected_hex")
_CHANNEL_KEYS = (
    "profile",
    "bits_per_cs",
    "symbols_sent",
    "bits_sent",
    "bit_errors",
    "symbol_errors",
    "erasures",
    "total_cycles",
    "bandwidth_bits_per_kcycle",
    "required_memory_bytes",
    "aborted",
    "decoded_hex",
)
_RECORD_KEYS = {AttackOutcome: _ATTACK_KEYS, ChannelReport: _CHANNEL_KEYS}
_SWEEP_HEADER = ("b", "bandwidth", "errors", "memory")
_MATRIX_HEADER = ("cell", "profile", "expected", "actual")


def _kv_table(pairs) -> str:
    """Aligned `key  value` lines, one per pair."""
    pairs = list(pairs)
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in pairs) + "\n"


def _csv(header, rows) -> str:
    """A header line and one comma-separated line per row."""
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _matrix_rows(report: SuiteReport):
    sus = report.susceptibility
    for cell in sus:
        for prof, actual in sus[cell].items():
            expected = EXPECTED_SUSCEPTIBILITY.get(cell, {}).get(prof)
            yield cell, prof, _yn(bool(expected)), _yn(actual)


def _sweep_rows(reports: list):
    for r in reports:
        yield (
            r.bits_per_cs,
            f"{r.bandwidth_bits_per_kcycle:.6f}",
            r.bit_errors,
            r.required_memory_bytes,
        )


def _matrix_table(report: SuiteReport) -> str:
    sus = report.susceptibility
    cells = list(sus)
    profiles = list(next(iter(sus.values()))) if sus else []
    name_w = max([len("profile")] + [len(p) for p in profiles])
    col_ws = [max(len(c), 1) for c in cells]
    header = "profile".ljust(name_w) + "  " + "  ".join(
        c.ljust(w) for c, w in zip(cells, col_ws)
    )
    rows = [header, "-" * len(header)]
    for prof in profiles:
        marks = [
            _yn(sus[cell][prof]).ljust(w) for cell, w in zip(cells, col_ws)
        ]
        rows.append(prof.ljust(name_w) + "  " + "  ".join(marks))
    rows.append("")
    if report.passed:
        rows.append("diff against golden tables: empty")
    else:
        rows.append(f"diff against golden tables: {len(report.mismatches)} cell(s)")
        for cell, prof, expected, actual in report.mismatches:
            rows.append(f"  {cell} / {prof}: expected {_yn(expected)}, got {_yn(actual)}")
    return "\n".join(rows) + "\n"


def _sweep_table(reports: list) -> str:
    header = f"{'b':>2}  {'bandwidth(b/kcyc)':>18}  {'errors':>6}  {'memory(B)':>9}"
    rows = [header, "-" * len(header)]
    for b, bandwidth, errors, memory in _sweep_rows(reports):
        rows.append(f"{b:>2}  {bandwidth:>18}  {errors:>6}  {memory:>9}")
    return "\n".join(rows) + "\n"


def _to_jsonable(obj):
    if isinstance(obj, (SuiteReport, AttackOutcome, ChannelReport)):
        return obj.to_dict()
    if isinstance(obj, list):
        return [_to_jsonable(x) for x in obj]
    return obj


def emit_report(report, fmt: str = "json") -> str:
    """Serialize any runner result: a SuiteReport, an AttackOutcome, a
    ChannelReport, a list of ChannelReports (a sweep), or a flat summary
    dict (table and JSON only)."""
    if fmt == "json":
        return json.dumps(_to_jsonable(report), sort_keys=True, indent=2) + "\n"
    keys = _RECORD_KEYS.get(type(report))
    if fmt == "csv":
        if keys is not None:
            d = report.to_dict()
            return _csv(keys, [[d[k] for k in keys]])
        if isinstance(report, SuiteReport):
            return _csv(_MATRIX_HEADER, _matrix_rows(report))
        if isinstance(report, list):
            return _csv(_SWEEP_HEADER, _sweep_rows(report))
    if fmt == "table":
        if keys is not None:
            d = report.to_dict()
            return _kv_table((k, d[k]) for k in keys)
        if isinstance(report, dict):
            return _kv_table(report.items())
        if isinstance(report, SuiteReport):
            return _matrix_table(report)
        if isinstance(report, list):
            return _sweep_table(report)
    raise ValueError(f"cannot emit {type(report).__name__} as {fmt!r}")
