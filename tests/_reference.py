"""Shared test fixtures: a reference interpreter, program generators and a
reference assembler.

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

The reference assembler is the earlier two-pass one, with its character-loop
operand splitter and its decoder; tests require isa.assemble to agree with
it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from transient_sim.core import make_machine, run
from transient_sim.isa import (
    FLAGS, K_BGE, K_CALL, K_CMP, K_FLUSH, K_LD, K_MOVI, K_MRS, K_RDCYC, K_RET, K_ST, KINDS,
    NUM_REGS, NUM_SYSREGS, AssemblyError, Imm, Instruction, LabelRef, Mem, Opcode, Program, Reg,
    SysReg, assemble,
)
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


# -- the reference assembler --------------------------------------------------
#
# The two-pass assembler and its decoder as they stood before the assembler
# became a single table-driven pass, kept verbatim (only the entry points are
# renamed) so that tests can require the same Program, or the same
# AssemblyError, from both on any source.  One known difference: a decimal
# with a leading zero, such as 012 or [r2 + 08], escapes here as the bare
# ValueError of int(tok, 0), where isa.assemble raises AssemblyError.

_SOURCES: dict = {}


def reference_decode(instr: Instruction) -> tuple:
    """What the engine needs of an instruction, as one flat tuple: (kind, dst,
    source registers, stored register, memory offset, is_load, is_store,
    is_control, arg, opcode text).  arg is what issue reads beside the source
    registers: an immediate, a branch target or a sysreg index.  An opcode
    without a kind raises KeyError."""
    opc, ops = instr.opcode, instr.operands
    kind = KINDS[opc]
    dst, srcs, data, offset, arg = None, (), None, 0, None
    if kind <= K_CMP:  # reads a register, then a register or an immediate
        a, b = ops[-2].index, ops[-1]
        dst = FLAGS if kind == K_CMP else ops[0].index
        if isinstance(b, Imm):
            srcs, arg = (a,), b.value
        else:
            srcs = (a,) if b.index == a else (a, b.index)
    elif kind in (K_MOVI, K_RDCYC, K_MRS):
        dst = ops[0].index
        arg = ops[1].value if kind == K_MOVI else ops[1].index if kind == K_MRS else None
    elif kind in (K_LD, K_ST, K_FLUSH):
        mem = ops[1] if kind == K_LD else ops[0]
        srcs, offset = (mem.base,), mem.offset
        dst = ops[0].index if kind == K_LD else None
        data = ops[1].index if kind == K_ST else None
    elif kind in (K_BGE, K_CALL, K_RET):  # CALL and RET use the stack at r15
        srcs = (FLAGS,) if kind == K_BGE else (15,)
        dst = None if kind == K_BGE else 15
        arg = None if kind == K_RET else ops[0].target
    srcs = _SOURCES.setdefault(srcs, srcs)
    return (kind, dst, srcs, data, offset, kind in (K_LD, K_RET), kind in (K_ST, K_CALL),
            kind in (K_BGE, K_CALL, K_RET), arg, opc.value)


# operand kind expected per position, per opcode
_SIGNATURES = {
    Opcode.MOVI: ("reg", "imm"),
    Opcode.LD: ("reg", "mem"),
    Opcode.ST: ("mem", "reg"),
    Opcode.ADD: ("reg", "reg", "reg_or_imm"),
    Opcode.SHL: ("reg", "reg", "reg_or_imm"),
    Opcode.AND: ("reg", "reg", "reg_or_imm"),
    Opcode.CMP: ("reg", "reg_or_imm"),
    Opcode.BGE: ("label",),
    Opcode.CALL: ("label",),
    Opcode.RET: (),
    Opcode.FLUSH: ("mem",),
    Opcode.RDCYC: ("reg",),
    Opcode.MRS: ("reg", "sysreg"),
    Opcode.YIELD: (),
    Opcode.FENCE: (),
    Opcode.HALT: (),
    Opcode.NOP: (),
}

_LABEL_DEF = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):(.*)$")
_MEM_RE = re.compile(
    r"^\[\s*r(\d+)\s*(?:([+-])\s*(0x[0-9a-fA-F]+|\d+)\s*)?\]$"
)
_REG_RE = re.compile(r"^r(\d+)$")
_SYSREG_RE = re.compile(r"^s(\d+)$")
_IMM_RE = re.compile(r"^[+-]?(0x[0-9a-fA-F]+|\d+)$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def reference_split_operands(text: str) -> list:
    """Split on commas that sit outside [...] brackets."""
    parts, depth, cur = [], 0, ""
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append(cur.strip())
    return parts


def _parse_operand(tok: str, kind: str, labels: dict, lineno: int):
    if kind in ("reg", "reg_or_imm"):
        m = _REG_RE.match(tok)
        if m:
            idx = int(m.group(1))
            if idx >= NUM_REGS:
                raise AssemblyError(lineno, f"register r{idx} out of range (r0-r{NUM_REGS - 1})")
            return Reg(idx)
        if kind == "reg":
            raise AssemblyError(lineno, f"expected register, got {tok!r}")
    if kind in ("imm", "reg_or_imm"):
        if _IMM_RE.match(tok):
            return Imm(int(tok, 0))
        raise AssemblyError(lineno, f"expected immediate, got {tok!r}")
    if kind == "mem":
        m = _MEM_RE.match(tok)
        if not m:
            raise AssemblyError(lineno, f"expected memory operand like [r1 + 8], got {tok!r}")
        base = int(m.group(1))
        if base >= NUM_REGS:
            raise AssemblyError(lineno, f"register r{base} out of range")
        off = int(m.group(3), 0) if m.group(3) else 0
        if m.group(2) == "-":
            off = -off
        return Mem(base, off)
    if kind == "label":
        if not _IDENT_RE.match(tok):
            raise AssemblyError(lineno, f"expected label name, got {tok!r}")
        if tok not in labels:
            raise AssemblyError(lineno, f"undefined label {tok!r}")
        return LabelRef(labels[tok])
    if kind == "sysreg":
        m = _SYSREG_RE.match(tok)
        if not m:
            raise AssemblyError(lineno, f"expected system register like s0, got {tok!r}")
        idx = int(m.group(1))
        if idx >= NUM_SYSREGS:
            raise AssemblyError(lineno, f"system register s{idx} out of range")
        return SysReg(idx)
    raise AssemblyError(lineno, f"cannot parse operand {tok!r}")


def _logical_lines(text: str):
    """Yield (lineno, label_or_None, statement_or_None) with comments stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        m = _LABEL_DEF.match(line)
        if m:
            yield lineno, m.group(1), m.group(2).strip() or None
        else:
            yield lineno, None, line


def reference_assemble(text: str) -> Program:
    """Assemble source text into a Program. Raises AssemblyError with line numbers."""
    # pass 1: count instructions, collect label -> instruction index
    labels: dict = {}
    count = 0
    for lineno, label, stmt in _logical_lines(text):
        if label is not None:
            if label in labels:
                raise AssemblyError(lineno, f"duplicate label {label!r}")
            labels[label] = count
        if stmt is not None:
            count += 1
    if count == 0:
        raise AssemblyError(0, "empty program")
    for name, idx in labels.items():
        if idx >= count:
            raise AssemblyError(0, f"label {name!r} points past the last instruction")

    # pass 2: parse statements
    instructions = []
    for lineno, _, stmt in _logical_lines(text):
        if stmt is None:
            continue
        parts = stmt.split(None, 1)
        mnemonic = parts[0].upper()
        try:
            opcode = Opcode(mnemonic)
        except ValueError:
            raise AssemblyError(lineno, f"unknown mnemonic {parts[0]!r}") from None
        operand_text = parts[1] if len(parts) > 1 else ""
        tokens = reference_split_operands(operand_text)
        sig = _SIGNATURES[opcode]
        if len(tokens) != len(sig):
            raise AssemblyError(
                lineno,
                f"{opcode.value} takes {len(sig)} operand(s), got {len(tokens)}",
            )
        operands = tuple(
            _parse_operand(tok, kind, labels, lineno) for tok, kind in zip(tokens, sig)
        )
        instructions.append(Instruction(opcode, operands))

    program = Program(tuple(instructions), labels)
    _check_termination(program)
    return program


def _check_termination(program: Program) -> None:
    halts = sum(1 for i in program.instructions if i.opcode is Opcode.HALT)
    if halts == 1:
        return
    if halts == 0 and program.instructions[-1].opcode is Opcode.YIELD:
        return
    raise AssemblyError(
        0, f"program must contain exactly one HALT or end with YIELD (found {halts} HALTs)"
    )
