"""Seeded input generators for the three workloads.

Everything here is plain data (assembly text, register files, memory cells,
byte strings) built from ``random.Random``; nothing imports the simulator, so
a change to the package cannot change a workload's inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DATA_BASE = 0x2000
DATA_SLOTS = 64  # cells addressable as [r14 + 8*k]
STACK_TOP = 0x6000  # r15; grows down, far above the data window
WORK_REGS = tuple(range(12))  # r12 loop counter, r13 pointer, r14 data base, r15 stack

LOOP_ITERATIONS = 2000

# The pointer programs come from this fixed seed, not from --seed: some of
# them hit the store-order replay fault on the store-to-load speculating
# cores, and the share of failed runs must be the same whatever the seed.
POINTER_SEED = 0x5107E


@dataclass(frozen=True)
class EngineInput:
    kind: str  # acyclic | loop | pointer
    text: str
    regs: tuple
    mem: tuple  # sorted (addr, value) pairs
    sysregs: tuple  # sorted (index, value) pairs


def _alu(rng: random.Random, d: int) -> str:
    a, b = rng.randrange(12), rng.randrange(12)
    roll = rng.random()
    if roll < 0.3:
        return f"    MOVI r{d}, {rng.randint(-64, 512)}"
    if roll < 0.55:
        tail = f"r{b}" if rng.random() < 0.5 else str(rng.randint(-32, 32))
        return f"    ADD r{d}, r{a}, {tail}"
    if roll < 0.75:
        return f"    SHL r{d}, r{a}, {rng.randint(0, 8)}"
    tail = f"r{b}" if rng.random() < 0.5 else str(rng.randint(0, 255))
    return f"    AND r{d}, r{a}, {tail}"


def _slot(rng: random.Random) -> int:
    return 8 * rng.randrange(DATA_SLOTS)


def _block(rng: random.Random, name: str, length: int, callees: list) -> list:
    """Straight-line code with forward branches that land inside the block."""
    lines: list = []
    pending: dict = {}
    calls_left = 2
    for i in range(length):
        if i in pending:
            lines.append(f"{pending.pop(i)}:")
        d = rng.choice(WORK_REGS)
        roll = rng.random()
        if roll < 0.40:
            lines.append(_alu(rng, d))
        elif roll < 0.55:
            lines.append(f"    LD r{d}, [r14 + {_slot(rng)}]")
        elif roll < 0.68:
            lines.append(f"    ST [r14 + {_slot(rng)}], r{rng.randrange(12)}")
        elif roll < 0.76:
            lines.append(f"    CMP r{rng.randrange(12)}, {rng.randint(-16, 300)}")
        elif roll < 0.84 and length - i > 2:
            skip = rng.randint(1, min(3, length - i - 1))
            label = f"{name}_{i + skip}"
            pending[i + skip] = label
            lines.append(f"    BGE {label}")
        elif roll < 0.88 and callees and calls_left:
            calls_left -= 1
            lines.append(f"    CALL {rng.choice(callees)}")
        elif roll < 0.92:
            lines.append(f"    FLUSH [r14 + {_slot(rng)}]")
        elif roll < 0.96:
            lines.append(f"    MRS r{d}, s{rng.randrange(16)}")
        else:
            lines.append("    FENCE" if rng.random() < 0.5 else "    NOP")
    i = length
    while pending:
        lines.append(f"{pending.pop(i)}:" if i in pending else "    NOP")
        i += 1
    return lines


def _initial_state(rng: random.Random, kind: str, text: str, extra_mem: dict) -> EngineInput:
    regs = [rng.randint(-16, 256) for _ in range(16)]
    regs[14] = DATA_BASE
    regs[15] = STACK_TOP
    mem = {
        DATA_BASE + 8 * k: rng.randint(0, 1 << 16)
        for k in rng.sample(range(DATA_SLOTS), rng.randint(4, 24))
    }
    mem.update(extra_mem)
    sysregs = {k: rng.randint(0, 1 << 12) for k in rng.sample(range(16), 4)}
    return EngineInput(kind, text, tuple(regs), tuple(sorted(mem.items())),
                       tuple(sorted(sysregs.items())))


def acyclic_program(rng: random.Random) -> EngineInput:
    """Forward branches and calls to later functions only: always terminates."""
    names = [f"fn{k}" for k in range(rng.randint(0, 3))]
    lines = _block(rng, "main", rng.randint(12, 28), names)
    lines.append("    HALT")
    for k, name in enumerate(names):
        lines.append(f"{name}:")
        lines += _block(rng, name, rng.randint(3, 10), names[k + 1:])
        lines.append("    RET")
    return _initial_state(rng, "acyclic", "\n".join(lines) + "\n", {})


def loop_program(rng: random.Random) -> EngineInput:
    """A counted backward loop of LOOP_ITERATIONS passes over a fixed body
    shape (load, two ALU ops, store, shift) with seeded registers, slots and
    immediates, so every seed asks the engine for the same amount of work.
    The body has no FLUSH, so after the first pass every load hits and the
    in-order cores stay far below the engine's cycle limit."""
    a, b, c, d = rng.sample(WORK_REGS, 4)
    lines = [
        f"    MOVI r12, {LOOP_ITERATIONS}",
        "top:",
        f"    LD r{a}, [r14 + {_slot(rng)}]",
        f"    ADD r{b}, r{a}, r{c}",
        f"    AND r{c}, r{b}, {rng.randint(0, 255)}",
        f"    ST [r14 + {_slot(rng)}], r{c}",
        f"    SHL r{d}, r{b}, {rng.randint(0, 8)}",
        "    ADD r12, r12, -1",
        "    CMP r12, 1",
        "    BGE top",
        "    HALT",
    ]
    return _initial_state(rng, "loop", "\n".join(lines) + "\n", {})


def pointer_program(rng: random.Random) -> EngineInput:
    """Stores and loads through r13, a pointer loaded from a cold data cell,
    so the store addresses resolve late and younger loads may run ahead."""
    ptr_slot = _slot(rng)
    target = rng.randrange(DATA_SLOTS - 8)
    lines = [f"    LD r13, [r14 + {ptr_slot}]"]
    for _ in range(rng.randint(8, 20)):
        d = rng.choice(WORK_REGS)
        roll = rng.random()
        if roll < 0.3:
            lines.append(f"    ST [r13 + {8 * rng.randrange(8)}], r{rng.randrange(12)}")
        elif roll < 0.6:
            lines.append(f"    LD r{d}, [r13 + {8 * rng.randrange(8)}]")
        elif roll < 0.7:
            lines.append(f"    LD r{d}, [r14 + {_slot(rng)}]")
        else:
            lines.append(_alu(rng, d))
    lines.append("    HALT")
    return _initial_state(
        rng, "pointer", "\n".join(lines) + "\n", {DATA_BASE + ptr_slot: DATA_BASE + 8 * target}
    )


def engine_inputs(seed: int, acyclic: int, loops: int, pointers: int) -> list:
    rng = random.Random(seed)
    out = [acyclic_program(rng) for _ in range(acyclic)]
    out += [loop_program(rng) for _ in range(loops)]
    fixed = random.Random(POINTER_SEED)
    out += [pointer_program(fixed) for _ in range(pointers)]
    return out


def secrets(seed: int, count: int, length: int) -> list:
    """Secret bytes from 1..255: a forwarded zero lights oracle line 0, so a
    zero byte could not tell a leak from a forwarded-zero read."""
    rng = random.Random(seed)
    return [bytes(rng.randint(1, 255) for _ in range(length)) for _ in range(count)]


def payload(seed: int, length: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(length))
