"""Countermeasure toggles and the demonstrations that probe their limits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .memory import DEFAULT_SEED

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import AttackOutcome
    from .profiles import CpuProfile


@dataclass(frozen=True)
class MitigationSet:
    """Deployable countermeasures; fields default to 'off'.

    rsb_flush_on_cs and rsb_refill_on_cs are alternatives for the same hook
    (what to do with the RSB on a context switch) and cannot be combined.
    """

    privileged_flush: bool = False
    pmu_noise_amplitude: int = 0
    rsb_flush_on_cs: bool = False
    rsb_refill_on_cs: bool = False
    btb_fallback_disabled: bool = False

    def __post_init__(self):
        if self.rsb_flush_on_cs and self.rsb_refill_on_cs:
            raise ValueError("rsb_flush_on_cs and rsb_refill_on_cs are mutually exclusive")
        if self.pmu_noise_amplitude < 0:
            raise ValueError("pmu_noise_amplitude must be >= 0")


def apply_mitigations(profile: "CpuProfile", mitigations: MitigationSet) -> "CpuProfile":
    """Pure: returns a copy of the profile with the countermeasures active."""
    return profile.with_overrides(mitigations=mitigations)


def pmu_noise_effect(
    profile: "CpuProfile",
    amplitude: int,
    trials: int = 1000,
    seed: int = DEFAULT_SEED,
) -> float:
    """Fraction of correct hit/miss classifications under noisy cycle reads.

    Runs `trials` balanced timing measurements (half L1 hits, half DRAM
    misses) through the usual read-access-read sequence with the counter
    noise set to `amplitude`, classifying against the latencies' hit threshold.
    """
    from .core import make_machine

    noisy = apply_mitigations(
        profile, MitigationSet(pmu_noise_amplitude=amplitude)
    )
    machine = make_machine(noisy, seed=seed)
    mem = machine.mem
    threshold = mem.lat.hit_threshold
    base = 0x6_0000
    correct = 0
    for trial in range(trials):
        addr = base + (trial % 64) * 64
        want_hit = trial % 2 == 0
        if want_hit:
            mem.access(addr)  # warm the line
        else:
            mem.invalidate_line(addr)
        classified_hit = mem.probe_lines(addr, 1)[0] < threshold
        if classified_hit == want_hit:
            correct += 1
    return correct / trials


def demo_refill_bypass(profile: "CpuProfile", seed: int = DEFAULT_SEED) -> "AttackOutcome":
    """Drain a refilled RSB and show whether BTB fallback reopens the channel.

    The profile must carry rsb_refill_on_cs.  An attacker context first runs a
    return at a fixed site that lands in a disclosure gadget, training the
    shared BTB.  After the context switch the RSB is refilled with the benign
    delay gadget's address; the victim then executes more returns than the
    RSB holds.  Once the RSB runs dry, a core that falls back to the BTB
    speculates into the attacker-trained gadget; a core that stops predicting
    (or has the fallback disabled) leaks nothing.
    """
    from .attacks import run_refill_bypass

    return run_refill_bypass(profile, seed=seed)
