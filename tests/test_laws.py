"""Laws of the susceptibility grid over profiles built from overrides.

Each law relates the grids of two runs, so it needs no oracle for either
(metamorphic testing).  The profiles come from one seeded generator of
valid override dicts, applied through the config layer as a config file's
profile_overrides are.  When a law fails, the failing override dict is
shrunk one key at a time, and the assertion names the smallest dict that
still fails.
"""

import itertools
import random

from transient_sim.attacks import run_matrix
from transient_sim.config import _apply_profile_overrides
from transient_sim.covert import ChannelConfig, run_channel
from transient_sim.mitigations import MitigationSet, apply_mitigations
from transient_sim.profiles import (
    PROFILES, RSB_MAX, RSB_MIN, ExceptionPolicy, PipelineKind, RsbUnderflow, SquashPolicy,
)

# the override keys a profile is drawn over, each with a draw of its value
# as a config file gives it
_DRAWS = {
    "rsb_size": lambda rng: rng.randint(RSB_MIN, RSB_MAX),
    "squash_policy": lambda rng: rng.choice([p.value for p in SquashPolicy]),
    "rsb_underflow": lambda rng: rng.choice([u.value for u in RsbUnderflow]),
    "exception_policy": lambda rng: rng.choice([p.value for p in ExceptionPolicy]),
    "pipeline": lambda rng: rng.choice([p.value for p in PipelineKind]),
    "branch_resolve_extra": lambda rng: rng.randint(0, 40),
    "return_resolve_extra": lambda rng: rng.randint(0, 40),
    "stl_speculation": lambda rng: rng.random() < 0.5,
    "sysreg_transient_forward": lambda rng: rng.random() < 0.5,
}

# every valid combination of the four boolean mitigations but none at all;
# pmu_noise_amplitude degrades the probe's reading by design, so it is left out
_BOOLEAN_MITIGATIONS = ("privileged_flush", "rsb_flush_on_cs", "rsb_refill_on_cs",
                        "btb_fallback_disabled")
_MITIGATION_SETS = [
    MitigationSet(**dict(zip(_BOOLEAN_MITIGATIONS, flags)))
    for flags in itertools.product((False, True), repeat=4)
    if any(flags) and not (flags[1] and flags[2])  # the two RSB hooks exclude each other
]


def _profiles(seed: int, count: int, keys=tuple(_DRAWS)):
    """`count` (core, overrides) pairs: a bundled core and a random subset of
    `keys`, each with a random valid value."""
    rng = random.Random(seed)
    for _ in range(count):
        chosen = [key for key in keys if rng.random() < 0.5]
        yield rng.choice(sorted(PROFILES)), {key: _DRAWS[key](rng) for key in chosen}


def _leaks(profile) -> set:
    """The cells of the profile's grid row that leak."""
    return {cell for cell, row in run_matrix([profile]).items() if row[profile.name].success}


def _shrink(fails, overrides: dict) -> dict:
    """The override dict left by dropping keys of `overrides` one at a time,
    each drop kept while `fails` still holds, until no single drop keeps it."""
    shrinking = True
    while shrinking:
        shrinking = False
        for key in overrides:
            smaller = {k: v for k, v in overrides.items() if k != key}
            if fails(smaller):
                overrides, shrinking = smaller, True
                break
    return overrides


def _check_law(name: str, cases, fails) -> None:
    """Assert that fails(core, overrides) is false for every case, naming
    the smallest failing override dict otherwise."""
    for core, overrides in cases:
        if fails(core, overrides):
            smallest = _shrink(lambda smaller: fails(core, smaller), overrides)
            raise AssertionError(f"{name} fails on {core} with profile_overrides {smallest}")


def test_shrinking_keeps_only_the_keys_a_failure_needs():
    def fails(overrides):
        return overrides.get("stl_speculation") and "rsb_size" in overrides

    drawn = {"rsb_size": 9, "pipeline": "in-order", "stl_speculation": True, "squash_policy": "x"}
    assert _shrink(fails, drawn) == {"rsb_size": 9, "stl_speculation": True}
    try:
        _check_law("the law", [("intel_i7", drawn)], lambda core, overrides: fails(overrides))
    except AssertionError as exc:
        assert str(exc) == ("the law fails on intel_i7 with profile_overrides "
                            "{'rsb_size': 9, 'stl_speculation': True}")
    else:
        raise AssertionError("a failing law passed")


def test_in_order_cores_never_leak():
    # the other overrides open windows on an out-of-order core; on an
    # in-order one nothing runs past an unresolved control or a fault
    cases = list(_profiles(2501, 60, keys=tuple(k for k in _DRAWS if k != "pipeline")))
    _check_law("in-order leaks nothing", cases, lambda core, overrides: _leaks(
        _apply_profile_overrides(PROFILES[core], {**overrides, "pipeline": "in-order"})))
    out_of_order = sum(bool(_leaks(_apply_profile_overrides(
        PROFILES[core], {**overrides, "pipeline": "out-of-order"})))
        for core, overrides in cases[:20])
    assert out_of_order >= 10, out_of_order  # the law is not met by cores that never leak


def test_mitigations_never_open_a_leak():
    assert len(_MITIGATION_SETS) == 11
    opened = []

    def fails(core, overrides):
        profile = _apply_profile_overrides(PROFILES[core], overrides)
        open_cells = _leaks(profile)
        opened.append(bool(open_cells))
        return any(_leaks(apply_mitigations(profile, mitigations)) - open_cells
                   for mitigations in _MITIGATION_SETS)

    _check_law("a mitigation opening a leak", _profiles(2502, 12), fails)
    assert sum(opened) >= 6, opened  # the unmitigated rows leak somewhere


def _rsb_leaks(profile) -> bool:
    return run_matrix([profile], cells=("rsb-l1",))["rsb-l1"][profile.name].success


def _channel_clean(profile) -> bool:
    """A b=3 transfer of b"HI" that is not aborted and has no erasure and no
    wrong symbol."""
    report = run_channel(profile, ChannelConfig(bits_per_cs=3), b"HI")
    return not report.aborted and report.erasures == 0 and report.symbol_errors == 0


def test_the_grids_rsb_cell_implies_a_clean_channel():
    # only this direction: the channel's gadget is shorter than the grid's,
    # so at the window's margin the channel opens first
    leaked = []

    def fails(core, overrides):
        profile = _apply_profile_overrides(PROFILES[core], overrides)
        leaked.append(_rsb_leaks(profile))
        return leaked[-1] and not _channel_clean(profile)

    _check_law("rsb-l1 leaking without a clean channel", _profiles(2601, 60), fails)
    assert sum(leaked) >= 15, leaked  # the law is not met by rows that never leak


def test_the_channel_opens_before_the_grid_at_the_window_margin():
    # On a core that cancels in-flight fills, the channel's 2-op gadget lands
    # its fill from a return resolution delay of 2; the grid's rsb-l1 gadget,
    # a 4-op chain that starts with a load, only from 7.
    for extra in range(0, 9):
        profile = _apply_profile_overrides(PROFILES["cortex_a72"], {
            "squash_policy": "cancel-inflight-fills", "return_resolve_extra": extra})
        assert (_channel_clean(profile), _rsb_leaks(profile)) == (extra >= 2, extra >= 7), extra
