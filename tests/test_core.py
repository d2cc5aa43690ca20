"""Pipeline engine behavior: predictors, speculation, squash policies, retirement."""

import random

import pytest

from transient_sim.core import Btb, Pht, Rsb, make_machine, run
from transient_sim.isa import assemble
from transient_sim.memory import Level, Privilege, line_of
from transient_sim.profiles import RsbUnderflow, get_profile

DATA = 0x2000


def _machine(name, **state_updates):
    prof = get_profile(name)
    st = make_machine(prof)
    for key, value in state_updates.items():
        setattr(st, key, value)
    return prof, st


class TestPht:
    def test_matches_two_bit_saturating_automaton(self):
        pht = Pht()
        counters = {}
        rng = random.Random(5)
        for _ in range(2_000):
            pc = rng.randrange(200)
            idx = pc % Pht.SIZE
            expect = counters.get(idx, 0) >= 2
            assert pht.predict(pc) == expect
            taken = rng.random() < 0.5
            pht.update(pc, taken)
            c = counters.get(idx, 0)
            counters[idx] = min(c + 1, 3) if taken else max(c - 1, 0)

    def test_needs_two_takens_to_flip(self):
        pht = Pht()
        assert not pht.predict(7)
        pht.update(7, True)
        assert not pht.predict(7)
        pht.update(7, True)
        assert pht.predict(7)


class TestRsb:
    def test_lifo_order(self):
        rsb = Rsb(4)
        for a in (10, 20, 30):
            rsb.push(a)
        pops = [rsb.pop(RsbUnderflow.STOP_PREDICTING) for _ in range(3)]
        assert pops == [30, 20, 10]

    def test_overflow_keeps_newest(self):
        rsb = Rsb(2)
        for a in (1, 2, 3):
            rsb.push(a)
        assert rsb.snapshot() == [3, 2]

    def test_underflow_stop_predicting(self):
        assert Rsb(2).pop(RsbUnderflow.STOP_PREDICTING) is None

    def test_underflow_ring_buffer_returns_stale_entry(self):
        rsb = Rsb(2)
        rsb.push(11)
        rsb.push(22)
        rsb.pop(RsbUnderflow.RING_BUFFER)
        rsb.pop(RsbUnderflow.RING_BUFFER)
        assert rsb.count == 0
        # empty now, but the ring still holds old values
        assert rsb.pop(RsbUnderflow.RING_BUFFER) in (11, 22)

    def test_underflow_btb_fallback(self):
        rsb = Rsb(2)
        btb = Btb()
        btb.update(90, 1234)
        assert rsb.pop(RsbUnderflow.SWITCH_TO_BTB, btb, 90) == 1234
        assert rsb.pop(RsbUnderflow.SWITCH_TO_BTB, btb, 91) is None
        assert (
            rsb.pop(RsbUnderflow.SWITCH_TO_BTB, btb, 90, btb_fallback_disabled=True)
            is None
        )

    def test_flush_and_refill(self):
        rsb = Rsb(3)
        rsb.push(5)
        rsb.flush()
        assert rsb.count == 0 and rsb.snapshot() == []
        rsb.refill(7)
        assert rsb.snapshot() == [7, 7, 7]


SHADOW_LOAD = """
    CMP r0, 0
    BGE done
    LD r1, [r14]
done:
    HALT
"""


class TestSpeculation:
    def test_shadow_load_fill_persists_on_keep_policy(self):
        prof, st = _machine("intel_i7")
        st.regs[14] = DATA
        trace = run(assemble(SHADOW_LOAD), st, prof)
        assert trace.halted and trace.abort is None
        assert trace.mispredicts == 1
        assert line_of(DATA) in trace.transient_lines
        assert st.mem.probe_level(DATA) is not Level.DRAM
        assert st.regs[1] == 0  # squashed load never retired

    def test_shadow_load_fill_cancelled_on_cancel_policy(self):
        prof, st = _machine("cortex_a9")
        st.regs[14] = DATA
        trace = run(assemble(SHADOW_LOAD), st, prof)
        assert trace.mispredicts == 1
        assert trace.transient_lines == set()
        assert st.mem.probe_level(DATA) is Level.DRAM

    def test_in_order_profile_runs_nothing_transiently(self):
        prof, st = _machine("cortex_a53")
        st.regs[14] = DATA
        trace = run(assemble(SHADOW_LOAD), st, prof)
        assert trace.halted
        assert trace.transient_lines == set()
        assert st.mem.probe_level(DATA) is Level.DRAM

    def test_squashed_ops_never_retire(self):
        source = "\n".join(
            ["    CMP r0, 0"]
            + [f"    BGE t{k}\n    LD r1, [r14 + {64 * k}]\nt{k}:" for k in range(5)]
            + ["    HALT"]
        )
        prof, st = _machine("intel_i7")
        st.regs[14] = DATA
        trace = run(assemble(source), st, prof)
        assert trace.halted
        assert trace.squashed_seqs
        assert not trace.squashed_seqs & trace.retired_seqs

    def test_branch_predictor_learns_across_runs(self):
        prof, st = _machine("intel_i7")
        st.regs[14] = DATA
        prog = assemble(SHADOW_LOAD)
        first = run(prog, st, prof).mispredicts
        st.pc = 0
        # two successful takens saturate the counter past the threshold
        second = run(prog, st, prof).mispredicts
        st.pc = 0
        third = run(prog, st, prof).mispredicts
        assert (first, third) == (1, 0)


class TestArchitecturalSemantics:
    def test_store_to_load_forwarding_value(self):
        prof, st = _machine("intel_i7")
        st.regs[14] = DATA
        prog = assemble(
            "    MOVI r1, 7\n    ST [r14], r1\n    LD r2, [r14]\n    HALT\n"
        )
        run(prog, st, prof)
        assert st.regs[2] == 7
        assert st.mem.cells[DATA] == 7

    def test_store_order_violation_replays_load(self):
        # the store's address depends on a slow load, so the younger load
        # issues first with the stale cell and must be squashed and re-run
        prof, st = _machine("intel_i7")
        st.regs[3] = DATA
        st.mem.cells[DATA] = DATA  # pointer to its own page
        prog = assemble(
            "    MOVI r2, 99\n"
            "    LD r1, [r3]\n"
            "    ST [r1 + 8], r2\n"
            "    LD r4, [r3 + 8]\n"
            "    HALT\n"
        )
        trace = run(prog, st, prof)
        assert st.regs[4] == 99
        assert trace.mispredicts >= 1

    def test_call_ret_round_trip(self):
        prof, st = _machine("intel_i7")
        st.regs[15] = 0x8000
        prog = assemble(
            "    CALL f\n    MOVI r2, 2\n    HALT\nf:\n    MOVI r1, 1\n    RET\n"
        )
        trace = run(prog, st, prof)
        assert trace.halted
        assert (st.regs[1], st.regs[2]) == (1, 2)
        assert st.regs[15] == 0x8000  # stack pointer restored
        assert st.mem.cells[0x8000 - 8] == 1  # saved return address

    def test_ret_follows_memory_not_prediction(self):
        # overwrite the saved return address before returning; the RSB
        # predicts the stale target but retirement must follow memory
        prof, st = _machine("intel_i7")
        st.regs[15] = 0x8000
        prog = assemble(
            "    CALL f\n"
            "    MOVI r8, 1\n"  # stale return target, must be skipped
            "done:\n"
            "    MOVI r9, 1\n"
            "    HALT\n"
            "f:\n"
            "    MOVI r1, 2\n"  # done's index
            "    ST [r15], r1\n"
            "    RET\n"
        )
        trace = run(prog, st, prof)
        assert trace.halted
        assert (st.regs[8], st.regs[9]) == (0, 1)
        assert st.pc == 3
        assert trace.mispredicts >= 1  # the RSB entry was stale

    def test_flags_sign_semantics(self):
        prof, st = _machine("intel_i7")
        for a, b, expected in ((5, 5, 0), (6, 5, 1), (4, 5, -1)):
            st2 = make_machine(prof)
            prog = assemble(f"    MOVI r1, {a}\n    CMP r1, {b}\n    HALT\n")
            run(prog, st2, prof)
            assert st2.flags == expected

    def test_shift_amount_masked_to_six_bits(self):
        prof, st = _machine("intel_i7")
        prog = assemble(
            "    MOVI r1, 1\n    MOVI r2, 65\n    SHL r3, r1, r2\n    HALT\n"
        )
        run(prog, st, prof)
        assert st.regs[3] == 2  # 65 & 63 == 1

    def test_rdcyc_reads_are_monotone(self):
        prof, st = _machine("cortex_a53")
        st.regs[14] = DATA
        prog = assemble("    RDCYC r1\n    LD r2, [r14]\n    RDCYC r3\n    HALT\n")
        run(prog, st, prof)
        assert 0 <= st.regs[1] <= st.regs[3]

    def test_non_trailing_yield_falls_through(self):
        prof, st = _machine("intel_i7")
        prog = assemble("    NOP\n    YIELD\n    HALT\n")
        trace = run(prog, st, prof)
        assert trace.halted
        assert st.pc == 2  # execution continued past the yield to the halt


class TestFaultHandling:
    def test_fault_with_recovery_pc_redirects(self):
        prof, st = _machine("intel_i7")
        st.privilege = Privilege.USER
        st.recovery_pc = 2
        prog = assemble("    MRS r1, s1\n    MOVI r2, 5\n    HALT\n")
        trace = run(prog, st, prof)
        assert trace.halted and trace.abort is None
        assert st.regs[1] == 0  # faulting read never retires a value
        assert st.regs[2] == 0  # the shadow of the fault was squashed

    def test_fault_without_recovery_aborts(self):
        prof, st = _machine("intel_i7")
        st.privilege = Privilege.USER
        prog = assemble("    MRS r1, s1\n    HALT\n")
        trace = run(prog, st, prof)
        assert not trace.halted
        assert trace.abort is not None and "fault" in trace.abort

    def test_kernel_mrs_reads_sysreg(self):
        prof, st = _machine("intel_i7")
        st.sysregs[3] = 0xAB
        prog = assemble("    MRS r1, s3\n    HALT\n")
        run(prog, st, prof)
        assert st.regs[1] == 0xAB


class TestContextSwitchHooks:
    def test_trailing_yield_halts(self):
        prof, st = _machine("intel_i7")
        prog = assemble("    MOVI r1, 1\n    YIELD\n")
        trace = run(prog, st, prof)
        assert trace.halted
        assert st.pc == 1

    def test_yield_flushes_rsb_under_flush_mitigation(self):
        from transient_sim.mitigations import MitigationSet

        prof = get_profile("intel_i7").with_overrides(
            mitigations=MitigationSet(rsb_flush_on_cs=True)
        )
        st = make_machine(prof)
        st.rsb.push(123)
        run(assemble("    YIELD\n"), st, prof)
        assert st.rsb.snapshot() == []

    def test_yield_refills_rsb_under_refill_mitigation(self):
        from transient_sim.mitigations import MitigationSet

        prof = get_profile("intel_i7").with_overrides(
            mitigations=MitigationSet(rsb_refill_on_cs=True)
        )
        st = make_machine(prof)
        st.benign_return_pc = 9
        st.rsb.push(123)
        run(assemble("    YIELD\n"), st, prof)
        assert st.rsb.snapshot() == [9] * prof.rsb_size

    def test_yield_flushes_rsb_under_refill_mitigation_without_benign_target(self):
        from transient_sim.mitigations import MitigationSet

        prof = get_profile("intel_i7").with_overrides(
            mitigations=MitigationSet(rsb_refill_on_cs=True)
        )
        st = make_machine(prof)
        assert st.benign_return_pc is None
        st.rsb.push(123)
        run(assemble("    YIELD\n"), st, prof)
        assert st.rsb.snapshot() == []


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        prog = assemble(SHADOW_LOAD)

        def one():
            prof, st = _machine("intel_i7")
            st.regs[14] = DATA
            trace = run(prog, st, prof)
            return trace.log_lines(), trace.to_json(), st.regs, st.mem.cells

        assert one() == one()

    def test_cycle_limit_aborts(self):
        prof, st = _machine("intel_i7")
        st.regs[15] = 0x8000
        st.mem.cells[0x8000 - 8] = 0  # RET loops back to the CALL forever
        prog = assemble("loop:\n    CALL loop\n    HALT\n")
        trace = run(prog, st, prof, max_cycles=2_000)
        assert trace.abort is not None
