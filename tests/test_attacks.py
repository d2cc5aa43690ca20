"""End-to-end attack experiments against the per-profile golden results.

The expected grid is written out literally here, independent of the copy the
package ships, so a regression in either one shows up as a disagreement.
"""

import hashlib
import json

import pytest

from transient_sim import attacks
from transient_sim.attacks import (
    DEFAULT_SECRET,
    MATRIX_PROFILES,
    SYSREG_TEST_VALUE,
    VARIANTS,
    AttackOutcome,
    Scenario,
    SecretLocation,
    WindowTrigger,
    matrix_mismatches,
    matrix_susceptibility,
    run_attack,
    run_matrix,
    run_meltdown_v3,
    run_meltdown_v3a,
    run_refill_bypass,
    run_spectre_rsb,
    run_spectre_v1,
    run_spectre_v4,
)
from transient_sim.memory import MemorySystem
from transient_sim.mitigations import MitigationSet, apply_mitigations
from transient_sim.profiles import get_profile

A53, A8, A9, A72, I7 = (
    "cortex_a53",
    "cortex_a8",
    "cortex_a9",
    "cortex_a72",
    "intel_i7",
)

# which profiles each attack cell should succeed on
GOLDEN = {
    "spec-load": {A9, A72, I7},
    "v1-cache-miss-l1": {A72, I7},
    "v1-cache-miss-mem": {A72, I7},
    "v1-page-fault-l1": {A9, A72, I7},
    "v1-page-fault-mem": {A9, A72, I7},
    "rsb-l1": {A72, I7},
    "rsb-mem": {I7},
    "v3": {I7},
    "v3a": {A72, I7},
    "v4": {A72, I7},
}
ALL_PROFILES = (A53, A8, A9, A72, I7)


@pytest.fixture(scope="module")
def matrix():
    return run_matrix()


def test_full_matrix_matches_golden_grid(matrix):
    got = matrix_susceptibility(matrix)
    expected = {
        cell: {name: name in winners for name in ALL_PROFILES}
        for cell, winners in GOLDEN.items()
    }
    assert got == expected


def test_shipped_golden_agrees_with_this_one(matrix):
    assert matrix_mismatches(matrix) == []


def test_successful_cells_recover_the_exact_bytes(matrix):
    for cell, row in matrix.items():
        for name, outcome in row.items():
            if outcome.success:
                assert outcome.recovered == outcome.expected, (cell, name)


def test_v1_recovers_planted_secret_byte_for_byte():
    secret = bytes((3, 141, 59, 26))
    outcome = run_spectre_v1("intel_i7", Scenario(), secret)
    assert outcome.success
    assert outcome.recovered == tuple(secret)


def test_v1_cache_miss_fails_on_short_window_core():
    outcome = run_spectre_v1(
        "cortex_a9", Scenario(WindowTrigger.CACHE_MISS, SecretLocation.L1)
    )
    assert not outcome.success


def test_v1_page_fault_window_is_wide_enough_for_a9():
    outcome = run_spectre_v1(
        "cortex_a9", Scenario(WindowTrigger.PAGE_FAULT, SecretLocation.L1)
    )
    assert outcome.success


def test_rsb_rejects_page_fault_scenario():
    with pytest.raises(ValueError):
        run_spectre_rsb(
            "intel_i7", Scenario(WindowTrigger.PAGE_FAULT, SecretLocation.L1)
        )


def test_rsb_dram_secret_needs_long_ret_resolution():
    slow = Scenario(WindowTrigger.CACHE_MISS, SecretLocation.MAIN_MEMORY)
    assert run_spectre_rsb("intel_i7", slow).success
    assert not run_spectre_rsb("cortex_a72", slow).success


def test_v3_forwards_real_value_only_on_lazy_fault_core():
    assert run_meltdown_v3("intel_i7").success
    for name in (A53, A8, A9, A72):
        outcome = run_meltdown_v3(name)
        assert not outcome.success
        # zero-forwarding cores must not leak the secret bytes either
        assert outcome.recovered != outcome.expected


def test_v3a_reads_system_register_transiently():
    outcome = run_meltdown_v3a("cortex_a72")
    assert outcome.success
    assert outcome.recovered == (SYSREG_TEST_VALUE,)
    assert not run_meltdown_v3a("cortex_a53").success


def test_v4_leaks_stale_value_before_store_overwrites_it():
    outcome = run_spectre_v4("intel_i7")
    assert outcome.success
    assert outcome.recovered == tuple(DEFAULT_SECRET)
    assert not run_spectre_v4("cortex_a53").success


def test_outcome_serialization_round_trip(matrix):
    outcome = matrix["v1-cache-miss-l1"]["intel_i7"]
    payload = outcome.to_dict()
    assert payload["success"] is True
    assert payload["recovered_hex"] == payload["expected_hex"]
    assert payload["scenario"] == "cache-miss/L1"


def test_failed_probe_reports_question_marks():
    outcome = run_spectre_v1("cortex_a53", Scenario())
    assert not outcome.success
    assert "??" in outcome.to_dict()["recovered_hex"] or (
        outcome.recovered != outcome.expected
    )


def test_matrix_accepts_custom_secret():
    secret = bytes((0, 1, 254))
    results = run_matrix(profiles=("intel_i7",), cells=("v1-cache-miss-l1", "v3"), secret=secret)
    for cell in ("v1-cache-miss-l1", "v3"):
        outcome = results[cell]["intel_i7"]
        assert outcome.success
        assert outcome.recovered == tuple(secret)


# each variant's direct runner, given a scenario and a secret that are not the
# defaults, for the variants that take them
_MEM_MISS = Scenario(WindowTrigger.CACHE_MISS, SecretLocation.MAIN_MEMORY)
_DIRECT = {
    "v1": lambda secret, seed: run_spectre_v1(I7, _MEM_MISS, secret, seed),
    "v3": lambda secret, seed: run_meltdown_v3(I7, secret, seed),
    "v3a": lambda secret, seed: run_meltdown_v3a(I7, seed),
    "v4": lambda secret, seed: run_spectre_v4(I7, secret, seed),
    "rsb": lambda secret, seed: run_spectre_rsb(I7, _MEM_MISS, secret, seed),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_attack_is_the_variants_runner(variant):
    secret, seed = bytes((9, 200)), 3
    got = run_attack(variant, I7, _MEM_MISS, secret, seed)
    assert got.to_dict() == _DIRECT[variant](secret, seed).to_dict()


def test_unknown_variant_and_cell_raise():
    with pytest.raises(ValueError, match="unknown attack variant 'v2'"):
        run_attack("v2", I7)
    # a name shaped like a V1 cell is no cell either
    with pytest.raises(ValueError, match="unknown matrix cell 'v1-cache-hit-l1'"):
        run_matrix(profiles=(I7,), cells=("v1-cache-hit-l1",))


def test_matrix_is_deterministic():
    a = matrix_susceptibility(run_matrix(seed=7))
    b = matrix_susceptibility(run_matrix(seed=7))
    assert a == b


# The benchmark's four mitigation sets plus counter noise, which moves every
# probe latency.
PINNED_MITIGATIONS = (
    MitigationSet(),
    MitigationSet(privileged_flush=True),
    MitigationSet(rsb_flush_on_cs=True, btb_fallback_disabled=True),
    MitigationSet(rsb_refill_on_cs=True),
    MitigationSet(pmu_noise_amplitude=40),
)
OUTCOMES_SHA256 = "089bcf3e65ed0f5cf27c9e8f4fbf06df669bb8f80e2eabe989f197c2455912c4"


def test_attack_outcome_bytes_are_unchanged():
    # every field of every outcome, probe latencies included
    digest = hashlib.sha256()
    for mit in PINNED_MITIGATIONS:
        profiles = [apply_mitigations(get_profile(n), mit) for n in MATRIX_PROFILES]
        results = run_matrix(profiles, secret=bytes((200, 13, 97, 1)), seed=3)
        outcomes = [o for row in results.values() for o in row.values()]
        outcomes += [run_refill_bypass(p, seed=3) for p in profiles]
        for outcome in outcomes:
            digest.update(json.dumps(outcome.to_dict(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == OUTCOMES_SHA256


@pytest.mark.parametrize("variant", VARIANTS)
def test_privileged_flush_stops_the_probe_before_it_touches_the_machine(variant, monkeypatch):
    # the attacker's user-mode probe cannot flush, so it neither flushes nor
    # runs the victim nor reloads; only the runs outside the probe (v1's
    # branch training) remain.  The unmitigated run shows that each is counted.
    calls = {"flush_lines": 0, "probe_lines": 0, "runs": 0, "probe_runs": 0}
    in_probe = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def run(*args, **kwargs):
        calls["runs"] += 1
        calls["probe_runs"] += bool(in_probe)
        return original_run(*args, **kwargs)

    def probe(*args, **kwargs):
        in_probe.append(True)
        try:
            return original_probe(*args, **kwargs)
        finally:
            in_probe.pop()

    original_run, original_probe = attacks.run, attacks._attack_probe
    monkeypatch.setattr(attacks, "run", run)
    monkeypatch.setattr(attacks, "_attack_probe", probe)
    for name in ("flush_lines", "probe_lines"):
        monkeypatch.setattr(MemorySystem, name, counted(name, getattr(MemorySystem, name)))
    for core in MATRIX_PROFILES:
        base = get_profile(core)
        calls.update(dict.fromkeys(calls, 0))
        run_attack(variant, base)
        assert min(calls.values()) > 0, core
        training = calls["runs"] - calls["probe_runs"]
        calls.update(dict.fromkeys(calls, 0))
        sealed = apply_mitigations(base, MitigationSet(privileged_flush=True))
        outcome = run_attack(variant, sealed)
        assert calls == {"flush_lines": 0, "probe_lines": 0, "runs": training,
                         "probe_runs": 0}, core
        assert outcome.probe_latencies == () and not outcome.success, core
