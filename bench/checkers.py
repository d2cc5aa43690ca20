"""Independent checks of the workloads' outputs.

None of these call into the simulator: the interpreter walks the assembled
instruction tuples by opcode name, the grid is the paper's table typed out
again, and the channel law is the docstring's formula evaluated here.  Each
check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import math

# -- engine: an in-order interpreter of the toy ISA -----------------------------


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def interpret(program, regs, mem, sysregs, max_steps: int = 1_000_000) -> dict:
    """Run `program` one instruction at a time in kernel mode, with no caches,
    predictors or speculation.  Returns the final architectural state."""
    regs = list(regs)
    mem = dict(mem)
    sysregs = dict(sysregs)
    flags = 0
    pc = 0
    instrs = program.instructions
    for _ in range(max_steps):
        if not 0 <= pc < len(instrs):
            raise RuntimeError(f"interpreter pc {pc} outside the program")
        instr = instrs[pc]
        name = instr.opcode.value
        ops = instr.operands
        nxt = pc + 1

        def val(op):
            return regs[op.index] if type(op).__name__ == "Reg" else op.value

        if name == "HALT":
            return {"regs": regs, "flags": flags, "pc": pc, "mem": mem}
        if name == "MOVI":
            regs[ops[0].index] = ops[1].value
        elif name == "LD":
            regs[ops[0].index] = mem.get(regs[ops[1].base] + ops[1].offset, 0)
        elif name == "ST":
            mem[regs[ops[0].base] + ops[0].offset] = regs[ops[1].index]
        elif name == "ADD":
            regs[ops[0].index] = val(ops[1]) + val(ops[2])
        elif name == "SHL":
            regs[ops[0].index] = val(ops[1]) << (val(ops[2]) & 63)
        elif name == "AND":
            regs[ops[0].index] = val(ops[1]) & val(ops[2])
        elif name == "CMP":
            flags = _sign(val(ops[0]) - val(ops[1]))
        elif name == "BGE":
            if flags >= 0:
                nxt = ops[0].target
        elif name == "CALL":
            regs[15] -= 8
            mem[regs[15]] = pc + 1
            nxt = ops[0].target
        elif name == "RET":
            nxt = mem.get(regs[15], 0)
            regs[15] += 8
        elif name == "MRS":
            regs[ops[0].index] = sysregs.get(ops[1].index, 0)
        elif name not in ("FLUSH", "FENCE", "NOP"):
            raise ValueError(f"interpreter does not model {name}")
        pc = nxt
    raise RuntimeError(f"interpreter exceeded {max_steps} steps")


def check_engine_run(expected: dict, got: dict) -> list:
    """Compare one engine run's final state (regs, flags, pc, mem, plus the
    trace's halted and abort) with the interpreter's."""
    if got["abort"] is not None:
        return [f"engine aborted: {got['abort']}"]
    if not got["halted"]:
        return ["engine did not halt"]
    problems = []
    if got["regs"] != expected["regs"]:
        diff = [i for i in range(16) if got["regs"][i] != expected["regs"][i]]
        problems.append(f"registers {diff} differ")
    if got["flags"] != expected["flags"]:
        problems.append(f"flags {got['flags']} != {expected['flags']}")
    if got["pc"] != expected["pc"]:
        problems.append(f"pc {got['pc']} != {expected['pc']}")
    if got["mem"] != expected["mem"]:
        addrs = sorted(a for a in set(got["mem"]) | set(expected["mem"])
                       if got["mem"].get(a) != expected["mem"].get(a))
        problems.append(f"memory cells {[hex(a) for a in addrs]} differ")
    return problems


# -- matrix: the paper's susceptibility grid --------------------------------------

PROFILE_ORDER = ("cortex_a53", "cortex_a8", "cortex_a9", "cortex_a72", "intel_i7")

_GRID = """
cell               a53 a8  a9  a72 i7
spec-load          N   N   Y   Y   Y
v1-cache-miss-l1   N   N   N   Y   Y
v1-cache-miss-mem  N   N   N   Y   Y
v1-page-fault-l1   N   N   Y   Y   Y
v1-page-fault-mem  N   N   Y   Y   Y
rsb-l1             N   N   N   Y   Y
rsb-mem            N   N   N   N   Y
v3                 N   N   N   N   Y
v3a                N   N   N   Y   Y
v4                 N   N   N   Y   Y
"""

PAPER_GRID = {
    row.split()[0]: dict(zip(PROFILE_ORDER, (mark == "Y" for mark in row.split()[1:])))
    for row in _GRID.strip().splitlines()[1:]
}

# Cells whose planted value is fixed by the experiment, not by the secret.
_FIXED_PLANT = {"spec-load": (17,), "v3a": (0xA5,)}

RSB_CELLS = ("rsb-l1", "rsb-mem", "v3a")


def expected_grid(mitigation: str) -> dict:
    """The grid a run under `mitigation` must show.  `none` is the paper's
    grid.  `privileged_flush` stops the user-mode probe from flushing, so
    every cell is dark.  Both return-stack context-switch hooks leave the
    RSB-carried cells (the two return-stack cells and the system-register
    read they carry) dark and nothing else changed."""
    if mitigation == "none":
        return {cell: dict(row) for cell, row in PAPER_GRID.items()}
    if mitigation == "privileged_flush":
        return {cell: {p: False for p in PROFILE_ORDER} for cell in PAPER_GRID}
    return {
        cell: {p: (False if cell in RSB_CELLS else leaks) for p, leaks in row.items()}
        for cell, row in PAPER_GRID.items()
    }


def check_grid(results: dict, mitigation: str, secret: bytes) -> list:
    """Every cell shows the expected verdict, and every leaking cell
    recovered exactly the planted bytes."""
    want = expected_grid(mitigation)
    problems = []
    if list(results) != list(want):
        return [f"grid cells {list(results)} != {list(want)}"]
    for cell, row in results.items():
        if list(row) != list(PROFILE_ORDER):
            problems.append(f"{cell}: profiles {list(row)}")
            continue
        planted = _FIXED_PLANT.get(cell, tuple(secret))
        for prof, outcome in row.items():
            if outcome.success != want[cell][prof]:
                problems.append(f"{mitigation}: {cell}/{prof} leaked={outcome.success}")
            if outcome.success and tuple(outcome.recovered) != planted:
                problems.append(f"{cell}/{prof} recovered {outcome.recovered} not {planted}")
    return problems


def check_grid_json(emitted: dict, results: dict) -> list:
    """The serialized report parses back to the grid that was run."""
    grid = {cell: {p: o.success for p, o in row.items()} for cell, row in results.items()}
    if emitted.get("susceptibility") != grid:
        return ["emitted JSON does not parse back to the grid that was run"]
    return []


# -- covert: the channel's cost law and noise bound --------------------------------

CONTEXT_SWITCH_COST = 1000
PROBE_COST_PER_LINE = 150
RSB_DEPTH = {"cortex_a9": 8, "cortex_a72": 16, "intel_i7": 16}


def symbol_cost(profile: str, bits: int) -> int:
    return 2 * CONTEXT_SWITCH_COST + 2 * RSB_DEPTH[profile] + PROBE_COST_PER_LINE * (1 << bits)


def symbols_of(message: bytes, bits: int) -> list:
    """The message as b-bit symbols, most significant bit first, zero-padded."""
    stream = "".join(f"{byte:08b}" for byte in message)
    stream += "0" * (-len(stream) % bits)
    return [int(stream[i:i + bits], 2) for i in range(0, len(stream), bits)]


def check_clean_transfer(report, message: bytes, bits: int) -> list:
    n = len(symbols_of(message, bits))
    problems = []
    if report.aborted:
        problems.append("transfer aborted")
    if report.symbols_sent != n:
        problems.append(f"sent {report.symbols_sent} symbols, expected {n}")
    if report.decoded != message:
        problems.append("decoded payload differs from the one sent")
    law = symbol_cost(report.profile, bits) * n
    if report.total_cycles != law:
        problems.append(f"total_cycles {report.total_cycles} != cost law {law}")
    return problems


def erasure_bound(p: float, n: int) -> float:
    """Half-width of the 99% (2.576 sigma) binomial interval on an erasure rate."""
    return 2.576 * math.sqrt(p * (1.0 - p) / n)


def check_noisy_transfer(report, message: bytes, bits: int, p: float) -> list:
    n = len(symbols_of(message, bits))
    problems = []
    if report.symbols_sent != n:
        problems.append(f"sent {report.symbols_sent} symbols, expected {n}")
    wrong = sum(k for (sent, got), k in report.confusion.items()
                if got is not None and got != sent)
    if wrong:
        problems.append(f"{wrong} symbols decoded to a wrong value")
    rate = report.erasures / max(n, 1)
    if abs(rate - p) > erasure_bound(p, n):
        problems.append(f"erasure rate {rate:.4f} outside {p} +/- {erasure_bound(p, n):.4f}")
    return problems


def check_dark_transfer(report, message: bytes, bits: int) -> list:
    n = len(symbols_of(message, bits))
    if report.symbols_sent != n or report.erasures != n:
        return [f"{report.erasures} of {report.symbols_sent} symbols erased, expected all {n}"]
    return []


def check_latency_grid(grid, csv_text: str, message: bytes, bits: int, threshold: int) -> list:
    """Each recorded probe row has exactly one fast line, at the symbol sent."""
    sent = symbols_of(message, bits)
    problems = []
    if grid is None or len(grid) != len(sent):
        return [f"latency grid has {0 if grid is None else len(grid)} rows, expected {len(sent)}"]
    for k, (row, symbol) in enumerate(zip(grid, sent)):
        fast = [i for i, lat in enumerate(row) if lat < threshold]
        if len(row) != 1 << bits or fast != [symbol]:
            problems.append(f"symbol {k}: fast lines {fast}, sent {symbol}")
            break
    rows = csv_text.count("\n") - 1
    if rows != len(sent) << bits:
        problems.append(f"latency CSV has {rows} rows, expected {len(sent) << bits}")
    return problems
