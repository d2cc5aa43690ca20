"""Out-of-order engine vs the in-order reference interpreter.

Speculation, replay, and caching may reorder work however they like, but the
final architectural state has to come out as if the program ran one
instruction at a time.
"""

import random

import pytest

from _reference import (
    DATA_BASE,
    STACK_BASE,
    GeneratedProgram,
    RefState,
    events_after_squash,
    final_state_matches,
    generate_loop_program,
    generate_pointer_program,
    generate_program,
    run_engine,
    run_reference,
)
from transient_sim.isa import assemble
from transient_sim.memory import Latencies
from transient_sim.mitigations import MitigationSet
from transient_sim.profiles import PROFILES, PipelineKind, get_profile


def test_thousand_random_programs_match_reference():
    prof = get_profile("intel_i7")
    for seed in range(1000):
        gen = generate_program(random.Random(seed))
        ok, detail = final_state_matches(gen, prof)
        assert ok, f"seed {seed}: {detail}\n{gen.text}"


@pytest.mark.parametrize(
    "name", ["cortex_a53", "cortex_a8", "cortex_a9", "cortex_a72"]
)
def test_other_profiles_match_reference(name):
    prof = get_profile(name)
    for seed in range(200):
        gen = generate_program(random.Random(10_000 + seed))
        ok, detail = final_state_matches(gen, prof)
        assert ok, f"seed {10_000 + seed} on {name}: {detail}\n{gen.text}"


def test_mitigations_do_not_change_benign_results():
    # countermeasures may cost cycles but must preserve program meaning
    armored = get_profile("intel_i7").with_overrides(
        mitigations=MitigationSet(
            privileged_flush=True,
            pmu_noise_amplitude=50,
            rsb_flush_on_cs=True,
            btb_fallback_disabled=True,
        )
    )
    for seed in range(200):
        gen = generate_program(random.Random(20_000 + seed))
        ok, detail = final_state_matches(gen, armored)
        assert ok, f"seed {20_000 + seed}: {detail}\n{gen.text}"


# The store's address comes from a cold cell, so the younger load of the same
# cell runs ahead and the store-order check replays it.  The replay must also
# re-execute the independent MOVI between the two.
_STORE_ORDER_REPLAY_SRC = """
    LD r13, [r14 + 0]
    ST [r13 + 0], r1
    MOVI r2, 7
    LD r3, [r14 + 8]
    HALT
"""


@pytest.mark.parametrize("name", ["cortex_a72", "intel_i7"])
def test_store_order_replay_keeps_ops_between_store_and_load(name):
    regs = [0] * 16
    regs[1], regs[2] = 99, -1
    regs[14], regs[15] = DATA_BASE, STACK_BASE
    gen = GeneratedProgram(
        _STORE_ORDER_REPLAY_SRC,
        assemble(_STORE_ORDER_REPLAY_SRC),
        regs,
        {DATA_BASE: DATA_BASE + 8, DATA_BASE + 8: 5},
        {},
    )
    ok, detail = final_state_matches(gen, get_profile(name))
    assert ok, detail


# The store-order violation squashes the two loads after the store.  The
# second one reads through the same late pointer, so it becomes ready in the
# very issue pass that resolves the store's address: squashed in that pass,
# it must not go on to issue and fill its line.
_SQUASHED_IN_PASS_SRC = """
    LD r13, [r14 + 0]
    ST [r13 + 0], r1
    LD r3, [r14 + 8]
    LD r6, [r13 + 64]
    HALT
"""


@pytest.mark.parametrize("name", ["cortex_a72", "intel_i7"])
def test_ops_squashed_in_an_issue_pass_never_issue(name):
    regs = [0] * 16
    regs[1] = 99
    regs[14], regs[15] = DATA_BASE, STACK_BASE
    gen = GeneratedProgram(
        _SQUASHED_IN_PASS_SRC, assemble(_SQUASHED_IN_PASS_SRC), regs,
        {DATA_BASE: DATA_BASE + 8}, {},
    )
    ok, detail = final_state_matches(gen, get_profile(name))
    assert ok, detail
    _st, trace = run_engine(gen, get_profile(name))
    assert {2, 3} <= trace.squashed_seqs  # both loads were replayed
    assert events_after_squash(trace) == []


def _runs_on_every_core(gen):
    """(core name, full-level trace) of gen on each of the five cores, once
    its final state matches the reference there and its window-level log is
    its full-level log less each op's fetch, execute and retire."""
    for name in sorted(PROFILES):
        prof = get_profile(name)
        ok, detail = final_state_matches(gen, prof)
        assert ok, f"{name}: {detail}\n{gen.text}"
        (_st, full), (_same, window) = run_engine(gen, prof), run_engine(gen, prof, False)
        assert window.log_lines() == [
            line for line, event in zip(full.log_lines(), full.events)
            if event[1] not in ("fetch", "execute", "retire")
        ], name
        yield name, full


def _executed_at(trace) -> dict:
    """seq -> (cycle, place in the log) of each op's execute event."""
    return {args[0]: (cycle, k) for k, (cycle, kind, _t, args) in enumerate(trace.events)
            if kind == "execute"}


def _late_store_program(pointer: int) -> GeneratedProgram:
    """Two loads chasing a cold pointer, so the oldest op retires late; then
    a store whose address comes from the cold cell DATA_BASE, holding
    pointer, a younger load of DATA_BASE + 8 and HALT, which stops fetch.
    The store's address resolves when nothing else is woken, alone in its
    pass, and nothing is due in the next cycle."""
    source = ("    LD r7, [r14 + 192]\n    LD r8, [r7 + 0]\n    LD r13, [r14 + 0]\n"
              "    ST [r13 + 0], r1\n    LD r3, [r14 + 8]\n    HALT\n")
    regs = [0] * 16
    regs[1], regs[14], regs[15] = 99, DATA_BASE, STACK_BASE
    return GeneratedProgram(source, assemble(source), regs, {
        DATA_BASE: pointer, DATA_BASE + 8: 5, DATA_BASE + 192: DATA_BASE + 512,
    }, {})


def test_a_store_alone_in_its_pass_frees_the_load_it_blocked():
    # on an out-of-order core that does not speculate past a store with an
    # unknown address, the load waits for it and issues in the same pass,
    # before the store itself
    freed = 0
    for name, trace in _runs_on_every_core(_late_store_program(DATA_BASE + 64)):
        executed = _executed_at(trace)
        prof = get_profile(name)
        if prof.pipeline is PipelineKind.OUT_OF_ORDER and not prof.stl_speculation:
            assert executed[4][0] == executed[3][0] and executed[4][1] < executed[3][1], name
            freed += 1
    assert freed == 1  # cortex_a9


def test_a_store_order_replay_in_a_one_op_pass_reopens_fetch():
    # the load ran ahead of the store to its cell on the cores that speculate
    # past unknown store addresses; the replay refetches it in the next
    # cycle, after HALT had stopped fetch
    replays = 0
    for name, trace in _runs_on_every_core(_late_store_program(DATA_BASE + 8)):
        squashes = [cycle for cycle, kind, _t, args in trace.events
                    if kind == "squash" and args[0] == "store-order violation"]
        if get_profile(name).stl_speculation:
            (cycle,) = squashes
            refetched = [c for c, kind, _t, args in trace.events if kind == "fetch" and args[1] == 4]
            assert refetched[-1] == cycle + 1 and len(refetched) == 2, name
            replays += 1
        else:
            assert not squashes, name
    assert replays == 2  # cortex_a72 and intel_i7


def test_ops_woken_for_one_cycle_in_reverse_order_issue_oldest_first():
    # the older ADD waits on a load through a cold pointer and is woken when
    # that load issues; the younger one is woken at dispatch, by a cold load
    # k NOPs later.  For one k both become ready in the same cycle, and the
    # older still goes first.
    same_cycle = set()
    for k in range(6):
        source = ("    LD r2, [r14 + 64]\n    LD r4, [r2 + 0]\n    ADD r5, r4, 1\n"
                  + "    NOP\n" * k + "    LD r1, [r14 + 128]\n    ADD r6, r1, 1\n    HALT\n")
        regs = [0] * 16
        regs[14], regs[15] = DATA_BASE, STACK_BASE
        gen = GeneratedProgram(source, assemble(source), regs, {DATA_BASE + 64: DATA_BASE + 64}, {})
        for name, trace in _runs_on_every_core(gen):
            executed = _executed_at(trace)
            older, younger = executed[2], executed[k + 4]
            if older[0] == younger[0]:
                assert older[1] < younger[1], (name, k)
                same_cycle.add(name)
    assert same_cycle == {"cortex_a9", "cortex_a72", "intel_i7"}


@pytest.mark.parametrize("name", ["cortex_a53", "cortex_a8", "cortex_a9", "cortex_a72", "intel_i7"])
def test_pointer_programs_match_reference(name):
    prof = get_profile(name)
    replays = 0
    for seed in range(150):
        gen = generate_pointer_program(random.Random(40_000 + seed))
        ok, detail = final_state_matches(gen, prof)
        assert ok, f"seed {40_000 + seed} on {name}: {detail}\n{gen.text}"
        _st, trace = run_engine(gen, prof)
        late = events_after_squash(trace)
        assert not late, f"seed {40_000 + seed} on {name}: {late}\n{gen.text}"
        replays += any(" store-order " in line for line in trace.log_lines())
    if prof.stl_speculation:
        assert replays >= 10  # the sweep does reach the store-order hazard


@pytest.mark.parametrize("name", ["cortex_a53", "cortex_a8", "cortex_a9", "cortex_a72", "intel_i7"])
def test_loops_match_reference(name):
    # the loops fill the window with many passes in flight at once
    prof = get_profile(name)
    for seed in range(6):
        gen = generate_loop_program(random.Random(50_000 + seed))
        ok, detail = final_state_matches(gen, prof)
        assert ok, f"seed {50_000 + seed} on {name}: {detail}\n{gen.text}"


@pytest.mark.parametrize("name", ["cortex_a53", "cortex_a8", "cortex_a9", "cortex_a72", "intel_i7"])
def test_fastest_timing_matches_reference(name):
    # the tightest timing the config admits: a branch or return resolves in
    # the cycle it issues, and an L1 hit takes one cycle
    prof = get_profile(name).with_overrides(
        branch_resolve_extra=0, return_resolve_extra=0, latencies=Latencies(1, 2, 3, 4)
    )
    for generate in (generate_program, generate_pointer_program, generate_loop_program):
        for seed in range(60_000, 60_020):
            gen = generate(random.Random(seed))
            ok, detail = final_state_matches(gen, prof)
            assert ok, f"{generate.__name__} seed {seed} on {name}: {detail}\n{gen.text}"


def test_engine_runs_are_repeatable():
    gen = generate_program(random.Random(31))
    prof = get_profile("cortex_a72")
    st1, trace1 = run_engine(gen, prof)
    st2, trace2 = run_engine(gen, prof)
    assert st1.regs == st2.regs
    assert st1.mem.cells == st2.mem.cells
    assert trace1.log_lines() == trace2.log_lines()


def test_reference_interpreter_rejects_runaway_programs():
    # a return to address 0 loops forever; the step guard must trip
    prog = assemble("loop:\n    CALL loop\n    HALT\n")
    with pytest.raises(RuntimeError, match="exceeded"):
        run_reference(prog, RefState(regs=[0] * 15 + [0x8000]), max_steps=500)

