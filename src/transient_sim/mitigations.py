"""Countermeasures applied to a profile, and the demonstrations that probe
their limits.  MitigationSet lives beside CpuProfile, which carries it."""

from __future__ import annotations

from .attacks import run_refill_bypass
from .core import DEFAULT_SEED, make_machine
from .profiles import CpuProfile, MitigationSet

# Drain a refilled RSB and show whether BTB fallback reopens the channel.
demo_refill_bypass = run_refill_bypass


def apply_mitigations(profile: CpuProfile, mitigations: MitigationSet) -> CpuProfile:
    """Pure: returns a copy of the profile with the countermeasures active."""
    return profile.with_overrides(mitigations=mitigations)


def pmu_noise_effect(
    profile: CpuProfile,
    amplitude: int,
    trials: int = 1000,
    seed: int = DEFAULT_SEED,
) -> float:
    """Fraction of correct hit/miss classifications under noisy cycle reads.

    Runs `trials` balanced timing measurements (half L1 hits, half DRAM
    misses) through the usual read-access-read sequence with the counter
    noise set to `amplitude`, classifying against the latencies' hit threshold.
    """
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
