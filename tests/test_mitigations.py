"""Countermeasure efficacy and the refill-bypass counterexample."""

import pytest

from transient_sim.attacks import (
    matrix_susceptibility,
    run_matrix,
    run_spectre_rsb,
    Scenario,
)
from transient_sim.covert import ChannelConfig, run_channel
from transient_sim.memory import Latencies
from transient_sim.mitigations import (
    MitigationSet,
    apply_mitigations,
    demo_refill_bypass,
    pmu_noise_effect,
)
from transient_sim.profiles import PROFILES, get_profile

ALL = tuple(sorted(PROFILES))


def predicted_accuracy(lat: Latencies, amplitude: int) -> float:
    """Analytic hit/miss classification accuracy under uniform counter noise.

    Each timing is the difference of two noisy counter reads, so the error
    is triangular on [-2a, 2a] with mass (2a+1-|d|) at offset d.  A hit is
    misread when the error pushes it past the midpoint threshold, a miss
    when the error drags it below.
    """
    if amplitude == 0:
        return 1.0
    threshold = (lat.l1_hit + lat.dram) // 2
    total = (2 * amplitude + 1) ** 2

    def p_at_least(x: int) -> float:
        lo = max(x, -2 * amplitude)
        return sum(2 * amplitude + 1 - abs(d) for d in range(lo, 2 * amplitude + 1)) / total

    hit_wrong = p_at_least(threshold - lat.l1_hit)
    miss_wrong = p_at_least(-(threshold - lat.dram - 1))  # symmetry: P(D<=t)=P(D>=-t)
    return 1.0 - (hit_wrong + miss_wrong) / 2


class TestMitigationSet:
    def test_rsb_policies_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            MitigationSet(rsb_flush_on_cs=True, rsb_refill_on_cs=True)

    def test_amplitude_must_be_non_negative(self):
        with pytest.raises(ValueError):
            MitigationSet(pmu_noise_amplitude=-1)

    def test_apply_is_pure(self):
        base = get_profile("intel_i7")
        armored = apply_mitigations(base, MitigationSet(privileged_flush=True))
        assert armored.mitigations.privileged_flush
        assert not base.mitigations.privileged_flush
        assert armored.name == base.name


class TestPrivilegedFlush:
    def test_every_leaking_cell_goes_dark(self):
        baseline = matrix_susceptibility(run_matrix())
        armored = [
            apply_mitigations(get_profile(n), MitigationSet(privileged_flush=True))
            for n in ALL
        ]
        after = matrix_susceptibility(run_matrix(profiles=armored))
        flipped = 0
        for cell, row in baseline.items():
            for name, was_leaking in row.items():
                assert not after[cell][name], (cell, name)
                flipped += was_leaking
        assert flipped >= 10  # the grid had plenty of live cells to kill

    def test_channel_bandwidth_drops_to_zero(self):
        armored = apply_mitigations(
            get_profile("intel_i7"), MitigationSet(privileged_flush=True)
        )
        report = run_channel(armored, ChannelConfig(bits_per_cs=3), b"HI")
        assert report.aborted
        assert report.bandwidth_bits_per_cycle == 0.0
        assert report.bandwidth_kb_per_mcycle == 0.0


class TestRsbFlush:
    FLAGS = MitigationSet(rsb_flush_on_cs=True, btb_fallback_disabled=True)

    def test_return_based_attacks_fail_on_every_profile(self):
        armored = [apply_mitigations(get_profile(n), self.FLAGS) for n in ALL]
        results = matrix_susceptibility(
            run_matrix(profiles=armored, cells=("rsb-l1", "rsb-mem", "v3a"))
        )
        for cell, row in results.items():
            assert not any(row.values()), (cell, row)

    def test_channel_carries_nothing_on_any_profile(self):
        for name in ALL:
            armored = apply_mitigations(get_profile(name), self.FLAGS)
            report = run_channel(armored, ChannelConfig(bits_per_cs=3), b"HI")
            assert report.symbol_errors == report.symbols_sent, name

    def test_non_return_attacks_survive(self):
        # the flush is targeted: v1 on a susceptible core still works
        armored = apply_mitigations(get_profile("intel_i7"), self.FLAGS)
        results = matrix_susceptibility(
            run_matrix(profiles=[armored], cells=("v1-cache-miss-l1",))
        )
        assert results["v1-cache-miss-l1"]["intel_i7"]


class TestRefillBypass:
    REFILL = MitigationSet(rsb_refill_on_cs=True)

    def test_refill_defeats_the_plain_rsb_attack(self):
        armored = apply_mitigations(get_profile("intel_i7"), self.REFILL)
        assert not run_spectre_rsb(armored, Scenario()).success

    def test_btb_fallback_reopens_the_hole_on_intel(self):
        armored = apply_mitigations(get_profile("intel_i7"), self.REFILL)
        assert demo_refill_bypass(armored).success

    def test_disabling_fallback_closes_it_again(self):
        sealed = apply_mitigations(
            get_profile("intel_i7"),
            MitigationSet(rsb_refill_on_cs=True, btb_fallback_disabled=True),
        )
        assert not demo_refill_bypass(sealed).success

    def test_stop_predicting_cores_are_immune(self):
        armored = apply_mitigations(get_profile("cortex_a72"), self.REFILL)
        assert not demo_refill_bypass(armored).success


class TestPmuNoise:
    def test_no_noise_classifies_perfectly(self):
        assert pmu_noise_effect(get_profile("intel_i7"), 0) == 1.0

    @pytest.mark.parametrize("amplitude", [98, 120, 200])
    def test_accuracy_tracks_analytic_overlap(self, amplitude):
        prof = get_profile("intel_i7")
        measured = pmu_noise_effect(prof, amplitude, trials=1000)
        expected = predicted_accuracy(prof.latencies, amplitude)
        assert measured < 1.0
        assert abs(measured - expected) <= 0.05, (measured, expected)

    def test_small_gap_with_small_noise(self):
        # a 12-cycle hit/miss gap already suffers at amplitude 6
        prof = get_profile("intel_i7").with_overrides(
            latencies=Latencies(l1_hit=4, l2_hit=12, dram=16, page_fault=1000)
        )
        expected = predicted_accuracy(prof.latencies, 6)
        assert expected == pytest.approx(1 - 49 / 338)
        measured = pmu_noise_effect(prof, 6, trials=1000)
        assert abs(measured - expected) <= 0.05

    def test_amplitude_below_half_gap_is_harmless(self):
        # differences of two reads span [-2a, 2a]; with 2a below the
        # threshold margin every classification still lands correctly
        prof = get_profile("intel_i7")
        margin = (prof.latencies.dram - prof.latencies.l1_hit) // 2  # 98
        assert pmu_noise_effect(prof, (margin // 2) - 1, trials=400) == 1.0

    def test_measurement_is_seeded(self):
        prof = get_profile("intel_i7")
        a = pmu_noise_effect(prof, 98, trials=500, seed=3)
        b = pmu_noise_effect(prof, 98, trials=500, seed=3)
        assert a == b
