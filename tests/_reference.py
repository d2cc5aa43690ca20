"""Shared test fixtures: a reference interpreter and a program generator.

The reference interpreter executes programs strictly in order, one
instruction at a time, with no caches, no predictors, and no speculation.
It shares nothing with the engine in core.py except the instruction set
dataclasses, so agreement between the two on final architectural state is
evidence, not a tautology.

The main generator produces random programs that terminate by construction:
branches only jump forward within their own block, and calls only go to
later-numbered functions, so the control-flow graph is acyclic.  Two more
cover the hazards it does not reach: counted backward loops, and loads and
stores through a pointer that resolves late.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from transient_sim.core import make_machine, run
from transient_sim.isa import Imm, LabelRef, Mem, Opcode, Program, Reg, SysReg, assemble
from transient_sim.profiles import CpuProfile

DATA_BASE = 0x2000
STACK_BASE = 0x6000  # grows down; far above the data window
DATA_SLOTS = 64  # addressable as [r14 + 8*k]

_WORK_REGS = range(14)  # r14 is the data base, r15 the stack pointer


@dataclass
class RefState:
    """Architectural state as the reference interpreter sees it."""

    regs: list
    flags: int = 0
    pc: int = 0
    mem: dict = field(default_factory=dict)
    sysregs: dict = field(default_factory=dict)
    halted: bool = False


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def run_reference(program: Program, state: RefState, max_steps: int = 100_000) -> RefState:
    """Execute until HALT. Raises if the program runs away or falls off the end."""
    instrs = program.instructions
    steps = 0
    while not state.halted:
        steps += 1
        if steps > max_steps:
            raise RuntimeError(f"reference interpreter exceeded {max_steps} steps")
        if not 0 <= state.pc < len(instrs):
            raise RuntimeError(f"reference pc {state.pc} outside program")
        instr = instrs[state.pc]
        opc = instr.opcode
        ops = instr.operands
        nxt = state.pc + 1

        def val(operand):
            if isinstance(operand, Reg):
                return state.regs[operand.index]
            if isinstance(operand, Imm):
                return operand.value
            raise TypeError(operand)

        def addr(operand: Mem) -> int:
            return state.regs[operand.base] + operand.offset

        if opc is Opcode.MOVI:
            state.regs[ops[0].index] = ops[1].value
        elif opc is Opcode.LD:
            state.regs[ops[0].index] = state.mem.get(addr(ops[1]), 0)
        elif opc is Opcode.ST:
            state.mem[addr(ops[0])] = state.regs[ops[1].index]
        elif opc is Opcode.ADD:
            state.regs[ops[0].index] = val(ops[1]) + val(ops[2])
        elif opc is Opcode.SHL:
            state.regs[ops[0].index] = val(ops[1]) << (val(ops[2]) & 63)
        elif opc is Opcode.AND:
            state.regs[ops[0].index] = val(ops[1]) & val(ops[2])
        elif opc is Opcode.CMP:
            state.flags = _sign(val(ops[0]) - val(ops[1]))
        elif opc is Opcode.BGE:
            if state.flags >= 0:
                nxt = ops[0].target
        elif opc is Opcode.CALL:
            sp = state.regs[15] - 8
            state.regs[15] = sp
            state.mem[sp] = state.pc + 1
            nxt = ops[0].target
        elif opc is Opcode.RET:
            nxt = state.mem.get(state.regs[15], 0)
            state.regs[15] += 8
        elif opc is Opcode.MRS:
            # kernel-mode semantics; generated programs never run deprivileged
            state.regs[ops[0].index] = state.sysregs.get(ops[1].index, 0)
        elif opc in (Opcode.FLUSH, Opcode.FENCE, Opcode.NOP):
            pass  # no architectural effect
        elif opc is Opcode.HALT:
            state.halted = True
            continue  # pc stays on the HALT, matching the engine
        else:
            raise ValueError(f"reference interpreter does not model {opc.value}")
        state.pc = nxt
    return state


@dataclass
class GeneratedProgram:
    text: str
    program: Program
    regs: list
    mem: dict
    sysregs: dict


def _emit_block(rng: random.Random, name: str, length: int, callees: list) -> list:
    """Lines for one straight-line block with forward branches, sans terminator."""
    lines: list = []
    pending: dict = {}  # op index -> label to place there
    calls_left = 2
    i = 0
    end = length
    while i < end:
        if i in pending:
            lines.append(f"{pending.pop(i)}:")
        roll = rng.random()
        d = rng.choice(_WORK_REGS)
        a = rng.randrange(16)
        b = rng.randrange(16)
        if roll < 0.16:
            lines.append(f"    MOVI r{d}, {rng.randint(-64, 512)}")
        elif roll < 0.30:
            if rng.random() < 0.5:
                lines.append(f"    ADD r{d}, r{a}, r{b}")
            else:
                lines.append(f"    ADD r{d}, r{a}, {rng.randint(-32, 32)}")
        elif roll < 0.38:
            lines.append(f"    SHL r{d}, r{a}, {rng.randint(0, 8)}")
        elif roll < 0.46:
            if rng.random() < 0.5:
                lines.append(f"    AND r{d}, r{a}, r{b}")
            else:
                lines.append(f"    AND r{d}, r{a}, {rng.randint(0, 255)}")
        elif roll < 0.58:
            lines.append(f"    LD r{d}, [r14 + {8 * rng.randrange(DATA_SLOTS)}]")
        elif roll < 0.70:
            lines.append(f"    ST [r14 + {8 * rng.randrange(DATA_SLOTS)}], r{a}")
        elif roll < 0.78:
            if rng.random() < 0.5:
                lines.append(f"    CMP r{a}, r{b}")
            else:
                lines.append(f"    CMP r{a}, {rng.randint(-16, 16)}")
        elif roll < 0.86 and end - i > 2:
            skip = rng.randint(1, min(3, end - i - 1))
            label = f"{name}_{i + skip}"
            pending[i + skip] = label
            lines.append(f"    BGE {label}")
        elif roll < 0.90 and callees and calls_left > 0:
            calls_left -= 1
            lines.append(f"    CALL {rng.choice(callees)}")
        elif roll < 0.94:
            lines.append(f"    FLUSH [r14 + {8 * rng.randrange(DATA_SLOTS)}]")
        elif roll < 0.97:
            lines.append(f"    MRS r{d}, s{rng.randrange(16)}")
        else:
            lines.append("    FENCE" if rng.random() < 0.5 else "    NOP")
        i += 1
    while pending:
        # a branch targeted one past the body; pad until every label lands
        if i in pending:
            lines.append(f"{pending.pop(i)}:")
        else:
            lines.append("    NOP")
        i += 1
    return lines


def generate_program(rng: random.Random) -> GeneratedProgram:
    """One random attack-free program plus the initial state it should run from."""
    nfuncs = rng.randint(0, 3)
    func_names = [f"fn{k}" for k in range(nfuncs)]

    lines: list = []
    lines += _emit_block(rng, "main", rng.randint(10, 25), func_names)
    lines.append("    HALT")
    for k, fname in enumerate(func_names):
        lines.append(f"{fname}:")
        # functions may only call later-numbered ones, keeping the graph acyclic
        lines += _emit_block(rng, fname, rng.randint(3, 10), func_names[k + 1 :])
        lines.append("    RET")

    text = "\n".join(lines) + "\n"
    program = assemble(text)

    regs = [rng.randint(-16, 256) for _ in range(16)]
    regs[14] = DATA_BASE
    regs[15] = STACK_BASE
    mem = {
        DATA_BASE + 8 * k: rng.randint(0, 1 << 16)
        for k in rng.sample(range(DATA_SLOTS), rng.randint(4, 24))
    }
    sysregs = {k: rng.randint(0, 1 << 12) for k in rng.sample(range(16), 4)}
    return GeneratedProgram(text, program, list(regs), mem, sysregs)


def generate_pointer_program(rng: random.Random) -> GeneratedProgram:
    """Loads and stores through r13, a pointer loaded from a cold data cell.

    The store addresses resolve only when that load completes, so younger
    loads through r14 may run ahead of a store to the same cell: the
    store-order hazard the store-to-load speculating cores replay."""
    target = DATA_BASE + 8 * rng.randrange(DATA_SLOTS - 8)
    ptr_slot = 8 * rng.randrange(DATA_SLOTS)
    lines = [f"    LD r13, [r14 + {ptr_slot}]"]
    for _ in range(rng.randint(6, 16)):
        d = rng.randrange(13)
        roll = rng.random()
        if roll < 0.3:
            lines.append(f"    ST [r13 + {8 * rng.randrange(8)}], r{rng.randrange(13)}")
        elif roll < 0.55:
            lines.append(f"    LD r{d}, [r13 + {8 * rng.randrange(8)}]")
        elif roll < 0.8:
            # the cells the pointer reaches, named through the data base
            lines.append(f"    LD r{d}, [r14 + {target - DATA_BASE + 8 * rng.randrange(8)}]")
        else:
            lines.append(f"    ADD r{d}, r{rng.randrange(13)}, {rng.randint(-8, 8)}")
    lines.append("    HALT")
    text = "\n".join(lines) + "\n"
    regs = [rng.randint(-16, 256) for _ in range(16)]
    regs[14] = DATA_BASE
    regs[15] = STACK_BASE
    mem = {target + 8 * k: rng.randint(0, 1 << 16) for k in range(8)}
    mem[DATA_BASE + ptr_slot] = target
    return GeneratedProgram(text, assemble(text), regs, mem, {})


def generate_loop_program(rng: random.Random) -> GeneratedProgram:
    """A counted backward loop of 50 to 300 passes: load, two ALU ops, store,
    shift, counter, CMP and BGE back to the top.  Half the loops load the
    cell the previous pass stored, so the load waits on that store's data."""
    iterations = rng.randint(50, 300)
    a, b, c, d = rng.sample(range(12), 4)
    load_slot = 8 * rng.randrange(8)
    store_slot = load_slot if rng.random() < 0.5 else 8 * rng.randrange(8)
    lines = [
        f"    MOVI r12, {iterations}",
        "top:",
        f"    LD r{a}, [r14 + {load_slot}]",
        f"    ADD r{b}, r{a}, r{c}",
        f"    AND r{c}, r{b}, {rng.randint(0, 255)}",
        f"    ST [r14 + {store_slot}], r{c}",
        f"    SHL r{d}, r{b}, {rng.randint(0, 8)}",
        "    ADD r12, r12, -1",
        "    CMP r12, 1",
        "    BGE top",
        "    HALT",
    ]
    text = "\n".join(lines) + "\n"
    regs = [rng.randint(-16, 256) for _ in range(16)]
    regs[14] = DATA_BASE
    regs[15] = STACK_BASE
    mem = {DATA_BASE + 8 * k: rng.randint(0, 1 << 16) for k in range(8)}
    return GeneratedProgram(text, assemble(text), regs, mem, {})


def events_after_squash(trace) -> list:
    """Execute and fill events of ops logged after the squash that dropped them.

    Replays the trace's fetch, retire and squash events to learn which ops
    each squash dropped (the youngest in flight), then returns every later
    execute event of a dropped op and the fill event that follows it.  Only a
    full-level trace holds those events, so a trace of retired ops with no
    fetch in it is rejected: it would pass with nothing checked."""
    if trace.retired_seqs and not any(kind == "fetch" for _c, kind, _t, _a in trace.events):
        raise ValueError("trace has no fetch events; run it with full_trace=True")
    live, dropped, late = [], set(), []
    executing = None
    for event in trace.events:
        _cycle, kind, template, args = event
        if kind == "fetch":
            live.append(args[0])
        elif kind == "retire" or (kind == "fault" and template.endswith("(retired)")):
            live.remove(args[0])
        elif kind == "squash":
            count = args[2]
            dropped.update(live[len(live) - count:])
            del live[len(live) - count:]
        elif kind == "execute":
            executing = args[0]
            if executing in dropped:
                late.append(event)
        elif kind == "fill" and executing in dropped:
            late.append(event)
    return late


def run_engine(gen: GeneratedProgram, profile: CpuProfile, full_trace: bool = True):
    """Run a generated program on the pipelined engine from its initial
    state, by default recording the full trace that events_after_squash
    reads."""
    st = make_machine(profile)
    st.regs = list(gen.regs)
    st.mem.cells = dict(gen.mem)
    st.sysregs = dict(gen.sysregs)
    trace = run(gen.program, st, profile, full_trace=full_trace)
    return st, trace


def final_state_matches(gen: GeneratedProgram, profile: CpuProfile) -> tuple:
    """(ok, detail) comparing engine and reference final architectural state.
    The engine's run must also log no execute or fill of an op after its
    squash."""
    st, trace = run_engine(gen, profile)
    if trace.abort is not None:
        return False, f"engine abort: {trace.abort}"
    if not trace.halted:
        return False, "engine did not halt"
    late = events_after_squash(trace)
    if late:
        return False, f"events after their op's squash: {late}"
    ref = run_reference(gen.program, RefState(regs=list(gen.regs), mem=dict(gen.mem), sysregs=dict(gen.sysregs)))
    if st.regs != ref.regs:
        return False, f"regs differ: {st.regs} vs {ref.regs}"
    if st.flags != ref.flags:
        return False, f"flags differ: {st.flags} vs {ref.flags}"
    if st.pc != ref.pc:
        return False, f"pc differs: {st.pc} vs {ref.pc}"
    if st.mem.cells != ref.mem:
        engine_only = {k: v for k, v in st.mem.cells.items() if ref.mem.get(k) != v}
        ref_only = {k: v for k, v in ref.mem.items() if st.mem.cells.get(k) != v}
        return False, f"memory differs: engine={engine_only} ref={ref_only}"
    return True, ""
