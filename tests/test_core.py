"""Pipeline engine behavior: predictors, speculation, squash policies, retirement."""

import copy
import dataclasses
import random

import pytest

from _reference import generate_loop_program, generate_pointer_program, generate_program, run_engine
from transient_sim.core import Pht, Rsb, make_machine, predict_return, run
from transient_sim.isa import assemble
from transient_sim.memory import Level, Privilege, line_of
from transient_sim.mitigations import MitigationSet
from transient_sim.profiles import PROFILES, RsbUnderflow, get_profile

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
        prof, st = _machine("intel_i7")
        st.btb[90] = 1234
        assert predict_return(st, prof, 90) == 1234
        assert predict_return(st, prof, 91) is None
        sealed = prof.with_overrides(mitigations=MitigationSet(btb_fallback_disabled=True))
        assert predict_return(st, sealed, 90) is None

    def test_flush_and_refill(self):
        rsb = Rsb(3)
        rsb.push(5)
        rsb.flush()
        assert rsb.count == 0 and rsb.snapshot() == []
        rsb.push_many(7, 3)
        assert rsb.snapshot() == [7, 7, 7]

    @staticmethod
    def _seeded(size, start, seed):
        """An RSB after a seeded history: untouched, pushed and popped back
        to empty (stale slots left behind), partly full, or wrapped past its
        size with a few entries popped again."""
        rng = random.Random(seed)
        rsb = Rsb(size)
        pushes, pops = {
            "fresh": (0, 0),
            "empty": (rng.randint(1, 2 * size), None),
            "partly-full": (rng.randint(1, size - 1), 0),
            "wrapped": (size + rng.randint(1, size), rng.randint(0, 2)),
        }[start]
        for _ in range(pushes):
            rsb.push(rng.randrange(1, 1 << 20))
        for _ in range(rsb.count if pops is None else pops):
            rsb.pop(RsbUnderflow.STOP_PREDICTING)
        return rsb

    @pytest.mark.parametrize("size", [4, 8, 16])
    @pytest.mark.parametrize("start", ["fresh", "empty", "partly-full", "wrapped"])
    def test_push_many_matches_repeated_push(self, size, start):
        for seed in range(3):
            for n in range(2 * size + 2):
                bulk, loop = self._seeded(size, start, seed), self._seeded(size, start, seed)
                bulk.push_many(0xABC, n)
                for _ in range(n):
                    loop.push(0xABC)
                # ring-buffer underflow reads stale slots, so every slot counts
                assert (bulk.entries, bulk.top, bulk.count) == (loop.entries, loop.top, loop.count)
                assert bulk.snapshot() == loop.snapshot()
                for mode in RsbUnderflow:
                    a, b = copy.deepcopy(bulk), copy.deepcopy(loop)
                    got = [a.pop(mode) for _ in range(size + 3)]
                    want = [b.pop(mode) for _ in range(size + 3)]
                    assert got == want, (size, start, seed, n, mode)


LIVE, STALE, TRAINED = 0xA1, 0x5A, 0xB7
RET_SITE = 90
# core -> (prediction with the RSB holding LIVE, with it empty), each for
# (BTB trained at RET_SITE, fallback on), (trained, off), (untrained, on),
# (untrained, off).  An empty RSB's stale slots all hold STALE; a full one
# holds STALE under LIVE, so its count shows whether the call popped.
_PREDICTIONS = {
    "cortex_a53": ((None, None, None, None), (None, None, None, None)),
    "cortex_a8": ((None, None, None, None), (None, None, None, None)),
    "cortex_a9": ((LIVE, LIVE, LIVE, LIVE), (None, None, None, None)),
    "cortex_a72": ((LIVE, LIVE, LIVE, LIVE), (None, None, None, None)),
    "cortex_a72+ring-buffer": ((LIVE, LIVE, LIVE, LIVE), (STALE, STALE, STALE, STALE)),
    "intel_i7": ((LIVE, LIVE, LIVE, LIVE), (TRAINED, None, None, None)),
}


def test_predict_return_table():
    """Every bundled core, plus a ring-buffer core no bundled profile has,
    over a full or empty RSB, a trained or untrained BTB, and the BTB
    fallback on or off.  In-order cores pop but predict nothing."""
    assert set(_PREDICTIONS) == set(PROFILES) | {"cortex_a72+ring-buffer"}
    for core, (full, empty) in _PREDICTIONS.items():
        name, _, underflow = core.partition("+")
        base = get_profile(name)
        if underflow:
            base = base.with_overrides(rsb_underflow=RsbUnderflow(underflow))
        combos = [(trained, sealed) for trained in (True, False) for sealed in (False, True)]
        for holding, expected in ((True, full), (False, empty)):
            for (trained, sealed), want in zip(combos, expected):
                prof = base.with_overrides(
                    mitigations=MitigationSet(btb_fallback_disabled=sealed)
                )
                st = make_machine(prof)
                st.rsb.push_many(STALE, prof.rsb_size)
                for _ in range(prof.rsb_size):
                    st.rsb.pop(RsbUnderflow.STOP_PREDICTING)
                if holding:
                    st.rsb.push(STALE)
                    st.rsb.push(LIVE)
                if trained:
                    st.btb[RET_SITE] = TRAINED
                case = (core, holding, trained, sealed)
                assert predict_return(st, prof, RET_SITE) == want, case
                assert st.rsb.count == (1 if holding else 0), case


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


class TestProgramEnd:
    RUN_OFF = "    MOVI r1, 1\n    CMP r1, 5\n    BGE t\n    HALT\nt:\n    NOP\n"

    def test_wrong_path_running_off_the_program_does_not_end_the_run(self):
        prof, st = _machine("intel_i7")
        st.pht.counters[2] = 3  # BGE at pc 2 predicted taken, into the NOP
        trace = run(assemble(self.RUN_OFF), st, prof)
        assert trace.mispredicts == 1
        assert trace.halted and trace.abort is None
        assert st.pc == 3

    @pytest.mark.parametrize("name", ["cortex_a53", "intel_i7"])
    def test_architectural_run_off_ends_without_halt(self, name):
        prof, st = _machine(name)
        st.pht.counters[2] = 3
        trace = run(assemble(self.RUN_OFF.replace("5", "0")), st, prof)  # taken
        assert not trace.halted
        assert trace.abort == "program ended without HALT"
        assert st.regs[1] == 1


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

    @pytest.mark.parametrize("name", ["cortex_a53", "cortex_a8", "cortex_a9", "cortex_a72", "intel_i7"])
    def test_recovery_path_reads_the_architectural_register(self, name):
        # on the in-order cores nothing younger is in flight when the fault
        # retires; the load's transient value must still not reach r2
        prof, st = _machine(name, privilege=Privilege.USER, recovery_pc=2)
        st.regs[1], st.regs[14] = 7, DATA
        st.mem.pages.set_privileged(DATA, True)
        st.mem.cells[DATA] = 0x55
        prog = assemble("    LD r1, [r14]\n    FENCE\n    ADD r2, r1, 0\n    HALT\n")
        trace = run(prog, st, prof)
        assert trace.halted
        assert (st.regs[1], st.regs[2]) == (7, 7)

    def test_fault_without_recovery_aborts(self):
        prof, st = _machine("intel_i7")
        st.privilege = Privilege.USER
        prog = assemble("    MRS r1, s1\n    HALT\n")
        trace = run(prog, st, prof)
        assert not trace.halted
        assert trace.abort is not None and "fault" in trace.abort

    @pytest.mark.parametrize("recovery_pc", [None, 3])
    def test_transient_return_with_a_faulting_stack_read_is_squashed(self, recovery_pc):
        prof, st = _machine("intel_i7", privilege=Privilege.USER, recovery_pc=recovery_pc)
        st.pht.counters[2] = 3  # BGE at pc 2 predicted taken, into the RET
        st.regs[15] = 0x9000
        st.mem.pages.set_privileged(0x9000, True)
        prog = assemble("    MOVI r1, 1\n    CMP r1, 5\n    BGE t\n    HALT\nt:\n    RET\n")
        trace = run(prog, st, prof)
        assert trace.mispredicts == 1
        assert trace.halted and trace.abort is None
        assert st.pc == 3 and st.regs[15] == 0x9000

    # the RET at pc 0 reads its target from a privileged or an unmapped page;
    # the return stack predicts pc 1, which must never retire
    RET_THROUGH = "    RET\n    MOVI r2, 9\n    MOVI r3, 1\n    HALT\n"

    def _ret_through(self, name, page, recovery_pc):
        prof, st = _machine(name, privilege=Privilege.USER, recovery_pc=recovery_pc)
        st.rsb.push(1)
        st.regs[15] = 0x9000
        if page == "privilege":
            st.mem.pages.set_privileged(0x9000, True)
        else:
            st.mem.pages.set_mapped(0x9000, False)
        return st, run(assemble(self.RET_THROUGH), st, prof)

    @pytest.mark.parametrize("page", ["privilege", "page"])
    @pytest.mark.parametrize("name", ["cortex_a53", "intel_i7"])
    def test_architectural_return_fault_redirects_to_recovery(self, name, page):
        st, trace = self._ret_through(name, page, recovery_pc=2)
        assert trace.halted and trace.abort is None
        assert (st.regs[2], st.regs[3], st.regs[15]) == (0, 1, 0x9000)
        assert any(kind == "fault" and "(retired)" in t for _c, kind, t, _a in trace.events)

    @pytest.mark.parametrize("page", ["privilege", "page"])
    @pytest.mark.parametrize("name", ["cortex_a53", "intel_i7"])
    def test_architectural_return_fault_without_recovery_aborts(self, name, page):
        st, trace = self._ret_through(name, page, recovery_pc=None)
        assert not trace.halted
        assert trace.abort == f"unhandled {page} fault at pc 0"
        assert st.regs[2] == 0

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
            trace = run(prog, st, prof, full_trace=True)
            return trace.log_lines(), trace.to_json(), st.regs, st.mem.cells

        assert one() == one()

    def test_cycle_limit_aborts(self):
        prof, st = _machine("intel_i7")
        st.regs[15] = 0x8000
        st.mem.cells[0x8000 - 8] = 0  # RET loops back to the CALL forever
        prog = assemble("loop:\n    CALL loop\n    HALT\n")
        trace = run(prog, st, prof, max_cycles=2_000)
        assert trace.abort is not None


# Programs that between them make every kind of trace event on the five
# bundled cores.  Each entry: (source, privilege, recovery_pc, setup).
def _map_out(st):
    st.mem.pages.set_mapped(DATA + 0x1000, False)


def _kernel_page(st):
    st.mem.pages.set_privileged(DATA, True)
    st.mem.cells[DATA] = 0x55


def _point_to_self(st):
    st.mem.cells[DATA] = DATA


_DIGEST_PROGRAMS = (
    # branch mispredict over a load: predict (BGE), fill, squash
    (SHADOW_LOAD, Privilege.KERNEL, None, None),
    # late store address: store-order violation and replay
    (
        "    MOVI r2, 99\n    LD r1, [r14]\n    ST [r1 + 8], r2\n    MOVI r5, 3\n"
        "    LD r4, [r14 + 8]\n    HALT\n",
        Privilege.KERNEL, None, _point_to_self,
    ),
    # overwritten return address: predict (RET) and a return mispredict
    (
        "    CALL f\n    MOVI r8, 1\ndone:\n    MOVI r9, 1\n    HALT\n"
        "f:\n    MOVI r1, 2\n    ST [r15], r1\n    RET\n",
        Privilege.KERNEL, None, None,
    ),
    # user-mode system-register read: retired fault, squash, recovery
    ("    MRS r1, s1\n    ADD r2, r1, 5\n    HALT\n", Privilege.USER, 2, None),
    # user-mode load of a kernel page and a dependent probe
    (
        "    LD r1, [r14]\n    SHL r2, r1, 6\n    ADD r3, r2, r14\n    LD r4, [r3 + 64]\n"
        "    HALT\n",
        Privilege.USER, 4, _kernel_page,
    ),
    # demand paging on an unmapped page
    ("    LD r1, [r14 + 4096]\n    AND r2, r1, 7\n    HALT\n", Privilege.KERNEL, None, _map_out),
    # bounded loop with a flush, a fence, cycle reads and a trailing yield
    (
        "    MOVI r1, 3\nloop:\n    ADD r1, r1, -1\n    FLUSH [r14]\n    RDCYC r2\n"
        "    LD r3, [r14]\n    CMP r1, 0\n    BGE loop\n    FENCE\n    NOP\n    YIELD\n",
        Privilege.KERNEL, None, None,
    ),
)


def _seed_cells(st):
    for k in range(64):
        st.mem.cells[DATA + 8 * k] = (k * 2_654_435_761) % 65_537


def _late_pointer(st):
    _seed_cells(st)
    st.mem.cells[DATA + 232] = DATA + 224


# Programs that also build the long windows: 300 passes of the benchmark's
# loop body (load, ALU, store, shift, counter, compare, backward branch), the
# same loop with the load reading the cell the previous pass stored, and
# stores and loads through a pointer loaded from a cold cell.
_STATE_PROGRAMS = _DIGEST_PROGRAMS + (
    (
        "    MOVI r12, 300\ntop:\n    LD r8, [r14 + 384]\n    ADD r0, r8, r9\n"
        "    AND r9, r0, 76\n    ST [r14 + 376], r9\n    SHL r4, r0, 2\n    ADD r12, r12, -1\n"
        "    CMP r12, 1\n    BGE top\n    HALT\n",
        Privilege.KERNEL, None, _seed_cells,
    ),
    (
        "    MOVI r12, 300\ntop:\n    LD r8, [r14 + 376]\n    ADD r0, r8, r9\n"
        "    AND r9, r0, 76\n    ST [r14 + 376], r9\n    SHL r4, r0, 2\n    ADD r12, r12, -1\n"
        "    CMP r12, 1\n    BGE top\n    HALT\n",
        Privilege.KERNEL, None, _seed_cells,
    ),
    (
        "    LD r13, [r14 + 232]\n    MOVI r5, 302\n    SHL r8, r2, 8\n    LD r6, [r13 + 32]\n"
        "    ST [r13 + 16], r1\n    ST [r13 + 0], r5\n    SHL r7, r8, 1\n    LD r5, [r13 + 32]\n"
        "    MOVI r5, 244\n    ST [r13 + 0], r1\n    LD r11, [r14 + 240]\n    LD r3, [r14 + 256]\n"
        "    LD r4, [r13 + 40]\n    LD r9, [r14 + 224]\n    HALT\n",
        Privilege.KERNEL, None, _late_pointer,
    ),
)


# The mitigated pins' set: return-stack refill, a disabled target-buffer
# fallback, a noisy cycle counter and privileged flushes, with a user-mode
# flush for the last to refuse.
_ARMORED = MitigationSet(
    privileged_flush=True, pmu_noise_amplitude=40,
    rsb_refill_on_cs=True, btb_fallback_disabled=True,
)
_USER_FLUSH = (
    "    FLUSH [r14]\n    LD r1, [r14]\n    ADD r2, r1, 1\n    HALT\n",
    Privilege.USER, 3, None,
)


def _digest_runs(programs=_DIGEST_PROGRAMS, names=None, mitigations=None, full_trace=True,
                 assemble_with=assemble):
    """(core name, final machine state, trace) of each program on each core,
    or on the named cores only, under the given mitigations if any.  The
    traces are full-level unless full_trace is False.  assemble_with makes
    the Program each run runs from the program's source."""
    from transient_sim.profiles import PROFILES

    for name in names or sorted(PROFILES):
        for source, privilege, recovery_pc, setup in programs:
            prof = get_profile(name)
            if mitigations is not None:
                prof = prof.with_overrides(mitigations=mitigations)
            st = make_machine(prof)
            st.privilege, st.recovery_pc = privilege, recovery_pc
            st.regs[14] = DATA
            st.regs[15] = 0x8000
            if setup is not None:
                setup(st)
            yield name, st, run(assemble_with(source), st, prof, full_trace=full_trace)


def _state_text(st):
    """Everything a run can leave behind in the machine, as text."""
    return repr((
        st.regs, st.flags, st.pc, sorted(st.mem.cells.items()),
        st.mem.l1.lru_view(), st.mem.l2.lru_view(), st.rsb.snapshot(), st.pht.counters,
        sorted(st.btb.items()), st.mem.counter.current, st.rng.getstate(),
    ))


def _digest_traces(runs=None):
    logs, payloads = [], []
    for _name, _st, trace in runs if runs is not None else _digest_runs():
        logs.extend(trace.log_lines())
        payloads.append(trace.to_json())
    return logs, payloads


class TestTraceBytes:
    """The trace text is a public output: its bytes may not drift."""

    LOG_SHA256 = "9f95a71756c98720f4396a452bd54976b196b63a6d982f6de6a5aee2f92463c2"
    JSON_SHA256 = "1eb1af96feac28e5b1861294c1d5c3a36d8e8245b0e02e25b77e6ab779b3e7c5"
    LOOP_AND_MITIGATED_SHA256 = "eb89ca0b1083f001efbd18ca6081ecba1b6f0da49917240c4e228001b8c89230"
    CACHE_SHA256 = "7c510a98a016020dba5ae07ed10e0d7b4b96842d11b6fe293277d80158a9704a"
    STATE_SHA256 = {
        "cortex_a53": "ea38a47894fe30228633b55aea5811c4b046a74d8167433a178e6e77ddd0e02d",
        "cortex_a72": "8da050536391ff1db14fa31db67d64175a62415f11327c5c515483171f03fa3a",
        "cortex_a8": "ea38a47894fe30228633b55aea5811c4b046a74d8167433a178e6e77ddd0e02d",
        "cortex_a9": "c16d655b63e303fa8a0dd7f5be366ce26d55e623f13186332ced9bd56b0696b5",
        "intel_i7": "1d249ce5e2fa8ff44e68147521301e1a775a97c73d8b23715fb931a604c6dfa5",
    }

    def test_every_event_kind_is_covered(self):
        logs, _ = _digest_traces()
        text = "\n".join(logs)
        for needle in (
            " fetch #", " execute #", " retire #", " fill @", " predict bge@",
            " predict ret@", " squash mispredict @", " squash store-order violation @",
            " squash fault @", " fault demand-page @", "(retired)",
        ):
            assert needle in text, needle

    def test_events_hold_plain_values_only(self):
        # a finished run keeps no pipeline objects alive through its trace
        from transient_sim.isa import Instruction

        for _name, _st, trace in _digest_runs():
            for _cycle, _kind, _template, args in trace.events:
                for arg in args:
                    assert isinstance(arg, (int, str, list, Instruction)), arg

    def test_log_and_json_bytes_are_unchanged(self):
        import hashlib

        logs, payloads = _digest_traces()
        log_digest = hashlib.sha256("\n".join(logs).encode()).hexdigest()
        json_digest = hashlib.sha256("\n".join(payloads).encode()).hexdigest()
        assert (log_digest, json_digest) == (self.LOG_SHA256, self.JSON_SHA256)

    def test_final_machine_state_is_unchanged(self):
        import hashlib

        states = {}
        for name, st, _trace in _digest_runs(_STATE_PROGRAMS):
            states.setdefault(name, []).append(_state_text(st))
        digests = {
            name: hashlib.sha256("\n".join(texts).encode()).hexdigest()
            for name, texts in states.items()
        }
        assert digests == self.STATE_SHA256

    def test_final_cache_contents_are_unchanged(self):
        # every line each level holds, most recent first, after each run
        import hashlib

        views = "\n".join(
            repr((name, st.mem.l1.lru_view(), st.mem.l2.lru_view()))
            for name, st, _trace in _digest_runs(_STATE_PROGRAMS)
        )
        assert hashlib.sha256(views.encode()).hexdigest() == self.CACHE_SHA256

    def test_loop_and_mitigated_trace_bytes_are_unchanged(self):
        # the long windows on every core, and every event kind under the
        # return-stack refill, a disabled target-buffer fallback, a noisy
        # cycle counter and privileged flushes
        import hashlib
        import itertools

        runs = itertools.chain(
            _digest_runs(_STATE_PROGRAMS[len(_DIGEST_PROGRAMS):]),
            _digest_runs(_DIGEST_PROGRAMS + (_USER_FLUSH,), ["intel_i7", "cortex_a72"], _ARMORED),
        )
        logs, payloads = _digest_traces(runs)
        text = "\n".join(logs) + "\n" + "\n".join(payloads)
        assert hashlib.sha256(text.encode()).hexdigest() == self.LOOP_AND_MITIGATED_SHA256


def _filled_self_pointer(st):
    # an L1-warm pointer to itself, and a store value for the late store
    _point_to_self(st)
    st.mem.fill(DATA)
    st.regs[3] = 77


# At cycle 4 the pointer load completes and wakes the ADD, the store and the
# AND; the store's address resolves in that pass, so it issues after it,
# and the MOVI dispatched in that cycle is ready at once.
_SHARED_PASS = (
    "    LD r1, [r14]\n    ADD r2, r1, 1\n    ST [r1 + 8], r3\n    AND r5, r1, 7\n"
    "    MOVI r6, 5\n    LD r8, [r14 + 8]\n    ADD r9, r8, r6\n    HALT\n",
    Privilege.KERNEL, None, _filled_self_pointer,
)


class TestWakeupHeap:
    """An op whose sources are ready at dispatch is issued without a wakeup
    entry, in the place the entry would have given it."""

    SHARED_PASS_SHA256 = "8b44075f5b630fb504da8393409051fb0dd5d89577b6c078ac0b81169ab05fdf"

    @staticmethod
    def _wakeup_pushes(monkeypatch, source, setup=None):
        """The entries pushed onto the wakeup heap in one intel_i7 run."""
        import heapq
        from types import SimpleNamespace

        from transient_sim import core

        engines, pushes = [], []
        init = core._Engine.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            engines.append(self)

        def heappush(heap, item):
            pushes.append((heap, item))
            heapq.heappush(heap, item)

        monkeypatch.setattr(core._Engine, "__init__", recording_init)
        monkeypatch.setattr(core, "heapq", SimpleNamespace(heappush=heappush,
                                                            heappop=heapq.heappop))
        prof, st = _machine("intel_i7")
        st.regs[14] = DATA
        if setup is not None:
            setup(st)
        trace = run(assemble(source), st, prof)
        assert trace.halted and len(engines) == 1
        return [item for heap, item in pushes if heap is engines[0].wakeups], st

    def test_independent_ops_push_no_wakeup(self, monkeypatch):
        source = "".join(f"    MOVI r{k}, {k + 10}\n" for k in range(12)) + "    HALT\n"
        pushed, st = self._wakeup_pushes(monkeypatch, source)
        assert pushed == []
        assert st.regs[:12] == [k + 10 for k in range(12)]

    def test_an_op_waiting_on_a_load_is_pushed_once(self, monkeypatch):
        # the load is ready at dispatch; the ADD waits for its DRAM fill
        pushed, st = self._wakeup_pushes(monkeypatch, "    LD r1, [r14]\n    ADD r2, r1, 1\n"
                                                      "    HALT\n")
        assert [seq for _cycle, seq, _op in pushed] == [1]
        assert st.regs[2] == 1

    def test_shared_pass_trace_bytes_are_unchanged(self):
        # the woken ops, then the op ready at dispatch, then the late store
        import hashlib

        runs = list(_digest_runs((_SHARED_PASS,)))
        _, _, i7_trace = next(r for r in runs if r[0] == "intel_i7")
        at_four = [args[0] for cycle, kind, _t, args in i7_trace.events
                   if cycle == 4 and kind == "execute"]
        assert at_four == [1, 3, 4, 2]
        logs, payloads = _digest_traces(runs)
        states = [_state_text(st) for _name, st, _trace in runs]
        text = "\n".join(logs + payloads + states)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHARED_PASS_SHA256


_PER_OP_KINDS = ("fetch", "execute", "retire")


def _assert_levels_agree(full, window):
    """Two runs of one program, each a (final state, trace) pair, at the full
    and the window level: the window trace is the full one without its
    per-op events, and nothing else differs."""
    (full_st, full_trace), (window_st, window_trace) = full, window
    assert any(kind == "fetch" for _c, kind, _t, _a in full_trace.events)
    assert not any(kind in _PER_OP_KINDS for _c, kind, _t, _a in window_trace.events)
    assert window_trace.events == [e for e in full_trace.events if e[1] not in _PER_OP_KINDS]
    for f in dataclasses.fields(full_trace):
        if f.name != "events":
            assert getattr(window_trace, f.name) == getattr(full_trace, f.name), f.name
    assert _state_text(window_st) == _state_text(full_st)


class TestTraceLevels:
    """The default window level drops each op's fetch, execute and retire
    events and changes nothing else a run leaves behind."""

    def test_levels_agree_on_the_pinned_programs(self):
        # the armored set and user-mode flush of the loop-and-mitigated pin
        checked = 0
        for programs, names, mitigations in (
            (_STATE_PROGRAMS, None, None),
            (_DIGEST_PROGRAMS + (_USER_FLUSH,), ["intel_i7", "cortex_a72"], _ARMORED),
        ):
            full = _digest_runs(programs, names, mitigations)
            window = _digest_runs(programs, names, mitigations, full_trace=False)
            for (_name, *full_run), (_same, *window_run) in zip(full, window, strict=True):
                _assert_levels_agree(full_run, window_run)
                checked += 1
        assert checked == 5 * len(_STATE_PROGRAMS) + 2 * (len(_DIGEST_PROGRAMS) + 1)

    @pytest.mark.parametrize(
        "generate", [generate_program, generate_pointer_program, generate_loop_program],
        ids=lambda g: g.__name__,
    )
    def test_levels_agree_on_generated_programs(self, generate):
        for seed in range(6):
            gen = generate(random.Random(60_000 + seed))
            for name in sorted(PROFILES):
                prof = get_profile(name)
                _assert_levels_agree(
                    run_engine(gen, prof), run_engine(gen, prof, full_trace=False)
                )


class TestDecodeTable:
    """Each Program is decoded once, on its first run, and that one table
    serves every later run of it on any core."""

    def test_one_table_serves_every_core_and_mitigation_set(self):
        programs = _STATE_PROGRAMS + (_USER_FLUSH,)
        shared = {source: assemble(source) for source, *_ in programs}
        checked = 0
        for mitigations in (None, _ARMORED):
            fresh = _digest_runs(programs, mitigations=mitigations)
            reused = _digest_runs(programs, mitigations=mitigations,
                                  assemble_with=shared.__getitem__)
            for (name, st, trace), (_same, reused_st, reused_trace) in zip(fresh, reused, strict=True):
                assert _state_text(reused_st) == _state_text(st), name
                assert reused_trace.log_lines() == trace.log_lines(), name
                assert reused_trace.to_json() == trace.to_json(), name
                checked += 1
        assert checked == 2 * len(PROFILES) * len(programs)

    def test_each_pc_is_decoded_at_most_once(self, monkeypatch):
        from collections import Counter

        from transient_sim import isa

        decodes, decode = Counter(), isa._decode

        def counting(instr):
            decodes[id(instr)] += 1
            return decode(instr)

        monkeypatch.setattr(isa, "_decode", counting)
        shared = {source: assemble(source) for source, *_ in _STATE_PROGRAMS}
        runs = 0
        for mitigations in (None, _ARMORED):
            for _name, _st, trace in _digest_runs(_STATE_PROGRAMS, mitigations=mitigations,
                                                  assemble_with=shared.__getitem__):
                assert trace.retired_seqs
                runs += 1
        assert runs == 2 * len(PROFILES) * len(_STATE_PROGRAMS)
        assert decodes and max(decodes.values()) == 1
        assert set(decodes) <= {id(i) for p in shared.values() for i in p.instructions}
        for source, program in shared.items():  # the table is not part of the value
            assert program == assemble(source) and repr(program) == repr(assemble(source))

    def test_unknown_opcode_raises_before_the_run_starts(self):
        from transient_sim.isa import Instruction, Opcode, Program

        prof, st = _machine("intel_i7")
        bogus = Program((Instruction("BOGUS", ()), Instruction(Opcode.HALT, ())), {})
        with pytest.raises(KeyError):
            run(bogus, st, prof)
        assert st.mem.counter.current == 0 and not st.mem.cells

    def test_no_enum_member_lookup_on_the_per_op_path(self):
        # the engine's methods, its run set-up, predict_return, Rsb.pop, the
        # memory checks and lookups the engine calls per op, the covert
        # channel's per-symbol path and the Flush+Reload probe compare ints
        # or values resolved once per run or at import, never an Enum member.
        # Only bodies are walked: a signature default is evaluated at import.
        import ast
        import inspect

        from transient_sim import attacks, core, covert, memory

        enums = {"Opcode", "RsbUnderflow", "PipelineKind", "SquashPolicy", "ExceptionPolicy",
                 "Privilege", "Level"}
        checked = []
        for module, functions, classes in (
            (core, ("predict_return",), {"_Engine": None, "Rsb": {"pop"}}),
            (memory, ("_flush_refusal",),
             {"MemorySystem": {"check_access", "probe_level", "latency_for", "fill",
                               "_fill_lines", "_reload_drop_lines", "_probe", "flush_lines",
                               "probe_and_flush_lines"}}),
            (covert, ("receiver_decode", "_window_admits", "sender_inject", "run_channel"), {}),
            (attacks, ("flush_reload",), {}),
        ):
            tree = ast.parse(inspect.getsource(module))
            top = {node.name: node for node in tree.body if hasattr(node, "name")}
            checked += [top[name] for name in functions]
            checked += [fn for cls, names in classes.items() for fn in top[cls].body
                        if isinstance(fn, ast.FunctionDef) and (names is None or fn.name in names)]
        assert {fn.name for fn in checked} >= {
            "predict_return", "pop", "__init__", "_redirect", "_squash_younger", "_load_hazard",
            "_hold", "_issue", "_store_address_known", "_resolve_controls", "_raise", "run",
            "_flush_refusal", "check_access", "probe_level", "latency_for", "fill", "_fill_lines", "_reload_drop_lines", "_probe", "flush_lines",
            "probe_and_flush_lines", "receiver_decode", "_window_admits", "sender_inject",
            "run_channel", "flush_reload",
        }
        lookups = [
            f"{fn.name}: {node.value.id}.{node.attr}"
            for fn in checked for statement in fn.body for node in ast.walk(statement)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in enums
        ]
        assert lookups == []


# A counted loop with a fence and a yield in its body, so both stall points
# recur with younger ops already on the predicted path.
_FENCED_LOOP = (
    "    MOVI r1, 2\nloop:\n    LD r2, [r14]\n    FENCE\n    ADD r1, r1, -1\n    YIELD\n"
    "    CMP r1, 0\n    BGE loop\n    HALT\n",
    Privilege.KERNEL, None, None,
)


def _fetches_and_retires(trace):
    """({seq: (fetch cycle, opcode)}, {seq: retire cycle}) from a trace's
    events; a retired fault counts as its op's retirement."""
    fetched, retired = {}, {}
    for cycle, kind, template, args in trace.events:
        if kind == "fetch":
            fetched[args[0]] = (cycle, args[2].opcode.value)
        elif kind == "retire" or (kind == "fault" and "(retired)" in template):
            retired[args[0]] = cycle
    return fetched, retired


class TestStallRule:
    """When fetch waits: for a FENCE or YIELD to retire, for every op to
    retire on an in-order core, and for an unpredicted return to resolve."""

    @pytest.mark.parametrize("name", ["cortex_a9", "cortex_a72", "intel_i7"])
    def test_nothing_younger_than_a_fence_or_yield_is_fetched_before_it_retires(self, name):
        stalls = 0
        for _core, _st, trace in _digest_runs(_STATE_PROGRAMS + (_FENCED_LOOP,), [name]):
            fetched, retired = _fetches_and_retires(trace)
            for seq, (_cycle, opcode) in fetched.items():
                if opcode not in ("FENCE", "YIELD") or seq not in retired:
                    continue
                stalls += 1
                for younger, (cycle, _opcode) in fetched.items():
                    if younger > seq:
                        assert cycle > retired[seq], (younger, seq)
        assert stalls >= 6

    @pytest.mark.parametrize("name", ["cortex_a53", "cortex_a8"])
    def test_in_order_fetch_waits_for_the_previous_op(self, name):
        checked = 0
        for _core, _st, trace in _digest_runs(_STATE_PROGRAMS + (_FENCED_LOOP,), [name]):
            fetched, retired = _fetches_and_retires(trace)
            seqs = sorted(fetched)
            assert set(seqs) == set(retired)  # nothing is fetched on a wrong path
            for older, seq in zip(seqs, seqs[1:]):
                assert fetched[seq][0] > retired[older], (older, seq)
                checked += 1
        assert checked > 1_000

    @pytest.mark.parametrize("name", ["cortex_a9", "cortex_a72", "intel_i7"])
    def test_unpredicted_return_fetches_its_target_after_it_resolves(self, name):
        # the return stack is empty and, on intel_i7, the target buffer too,
        # so the RET has no prediction; its stack line is cold
        prof, st = _machine(name)
        st.regs[15] = 0x8000
        st.mem.cells[0x8000] = 2
        prog = assemble("    RET\n    MOVI r2, 9\nt:\n    MOVI r2, 1\n    HALT\n")
        trace = run(prog, st, prof, full_trace=True)
        assert trace.halted and trace.mispredicts == 0 and st.regs[2] == 1
        fetched, retired = _fetches_and_retires(trace)
        assert [fetched[seq][1] for seq in sorted(fetched)] == ["RET", "MOVI", "HALT"]
        # the RET is the oldest op, so it retires in the cycle it resolves
        execute = next(c for c, kind, _t, args in trace.events if kind == "execute")
        resolve = execute + prof.latencies.dram + prof.return_resolve_extra
        assert retired[0] == resolve
        assert fetched[1][0] == resolve + 1

    def test_dispatch_gate_is_shut_exactly_while_fetch_waits(self, monkeypatch):
        # run tests dispatch_ready alone, so it must be _INF whenever fetch
        # is stopped or a drain op is in flight, and a real cycle otherwise;
        # checked as each issue, control resolution, fault and run starts and
        # ends, so also after the retirement that ends a run.  Run dispatches
        # in its own loop, so each issue's entry check sees the gate that the
        # cycle's dispatch, and its retirements, left
        from collections import Counter

        from transient_sim import core

        seen = Counter()

        def check(engine, where):
            shut = engine.dispatch_ready >= core._INF
            fetching, draining = engine.fetch_active, engine.drain is not None
            assert shut == (not fetching or draining), (where, engine.cycle, fetching, draining)
            seen[shut, fetching, draining] += 1

        def checked(method):
            def wrapper(self, *args):
                check(self, f"{method.__name__} entry")
                result = method(self, *args)
                check(self, f"{method.__name__} exit")
                return result
            return wrapper

        for name in ("_issue", "_resolve_controls", "_raise", "run"):
            monkeypatch.setattr(core._Engine, name, checked(getattr(core._Engine, name)))
        runs = list(_digest_runs(_STATE_PROGRAMS + (_FENCED_LOOP,)))
        assert len(runs) == len(PROFILES) * (len(_STATE_PROGRAMS) + 1)
        assert all(trace.halted or trace.abort for _name, _st, trace in runs)
        # open; shut by a drain op; by a stopped fetch; by both (an in-order
        # branch or HALT)
        assert set(seen) == {(False, True, False), (True, True, True), (True, False, False),
                             (True, False, True)}
        assert sum(seen.values()) > 10_000
