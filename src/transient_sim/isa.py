"""Toy assembly language understood by the core models.

Code and data live in separate address spaces: code addresses are instruction
indices, data addresses are plain byte addresses.  One memory cell holds one
integer value, so a "byte" of secret is simply a cell whose value is < 256.

assemble makes one pass over the source lines, collecting the statements and
the labels, then parses each statement.  A mnemonic is looked up by its text
in one table that gives the Opcode and the operand kinds; the tokens r0-r15
and s0-s15 are shared Reg and SysReg instances, found before any regex runs;
and a statement's operands are split with str.split, rejoining the parts on
either side of a comma that sits inside brackets.  Program.decoded turns each
instruction into the engine's flat tuple, finding the opcode's kind, flags
and text by identity, without hashing the Enum member.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

NUM_REGS = 16
NUM_SYSREGS = 16
FLAGS = NUM_REGS  # pseudo-register written by CMP, read by BGE


class Opcode(Enum):
    MOVI = "MOVI"
    LD = "LD"
    ST = "ST"
    ADD = "ADD"
    SHL = "SHL"
    AND = "AND"
    CMP = "CMP"
    BGE = "BGE"
    CALL = "CALL"
    RET = "RET"
    FLUSH = "FLUSH"
    RDCYC = "RDCYC"
    MRS = "MRS"
    YIELD = "YIELD"
    FENCE = "FENCE"
    HALT = "HALT"
    NOP = "NOP"


# The int kind of each opcode, which the engine branches on instead of Opcode
# (an Enum member lookup is slow).  The ALU kinds come first, so kind <= K_CMP
# picks them out, and the kinds that stop fetch last, so kind >= K_YIELD does;
# an opcode without a K_ name fails here, at import.
(K_ADD, K_SHL, K_AND, K_CMP, K_MOVI, K_LD, K_ST, K_BGE, K_CALL, K_RET, K_FLUSH,
 K_RDCYC, K_MRS, K_NOP, K_YIELD, K_FENCE, K_HALT) = range(17)
KINDS = {opcode: globals()["K_" + opcode.name] for opcode in Opcode}


@dataclass(frozen=True)
class Reg:
    index: int

    def __str__(self) -> str:
        return f"r{self.index}"


@dataclass(frozen=True)
class Imm:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Mem:
    """Register-plus-offset data address, written ``[rN + off]``."""

    base: int
    offset: int

    def __str__(self) -> str:
        if self.offset == 0:
            return f"[r{self.base}]"
        sign = "+" if self.offset >= 0 else "-"
        return f"[r{self.base} {sign} {abs(self.offset)}]"


@dataclass(frozen=True)
class LabelRef:
    """Branch/call target, resolved to an instruction index."""

    target: int

    def __str__(self) -> str:
        return f"L{self.target}"


@dataclass(frozen=True)
class SysReg:
    index: int

    def __str__(self) -> str:
        return f"s{self.index}"


@dataclass(frozen=True)
class Instruction:
    opcode: Opcode
    operands: tuple

    def __str__(self) -> str:
        if not self.operands:
            return self.opcode.value
        return f"{self.opcode.value} {', '.join(str(o) for o in self.operands)}"


@dataclass(frozen=True)
class Program:
    instructions: tuple
    labels: dict

    def __len__(self) -> int:
        return len(self.instructions)

    @cached_property
    def decoded(self) -> tuple:
        """pc -> _decode(instruction): built on the program's first run and
        kept with it, for every later run on any core."""
        return tuple(map(_decode, self.instructions))


# one tuple per list of source registers, shared by every entry that reads it;
# with 17 registers there are at most 17 * 16 lists
_SOURCES: dict = {}

# id(opcode) -> (kind, is_load, is_store, is_control, opcode text).  Keyed by
# identity because hashing an Enum member runs Python code; the members live
# as long as the module, so no other object can share one of their ids.
_OPCODE_INFO = {
    id(opcode): (kind, kind in (K_LD, K_RET), kind in (K_ST, K_CALL),
                 kind in (K_BGE, K_CALL, K_RET), opcode.value)
    for opcode, kind in KINDS.items()
}


def _decode(instr: Instruction) -> tuple:
    """What the engine needs of an instruction, as one flat tuple: (kind, dst,
    source registers, stored register, memory offset, is_load, is_store,
    is_control, arg, opcode text).  arg is what issue reads beside the source
    registers: an immediate, a branch target or a sysreg index.  An opcode
    without a kind raises KeyError."""
    ops = instr.operands
    kind, is_load, is_store, is_control, text = _OPCODE_INFO[id(instr.opcode)]
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
    return (kind, dst, srcs, data, offset, is_load, is_store, is_control, arg, text)


class AssemblyError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


# mnemonic text -> (Opcode, operand kind expected per position)
_MNEMONICS = {
    "MOVI": (Opcode.MOVI, ("reg", "imm")),
    "LD": (Opcode.LD, ("reg", "mem")),
    "ST": (Opcode.ST, ("mem", "reg")),
    "ADD": (Opcode.ADD, ("reg", "reg", "reg_or_imm")),
    "SHL": (Opcode.SHL, ("reg", "reg", "reg_or_imm")),
    "AND": (Opcode.AND, ("reg", "reg", "reg_or_imm")),
    "CMP": (Opcode.CMP, ("reg", "reg_or_imm")),
    "BGE": (Opcode.BGE, ("label",)),
    "CALL": (Opcode.CALL, ("label",)),
    "RET": (Opcode.RET, ()),
    "FLUSH": (Opcode.FLUSH, ("mem",)),
    "RDCYC": (Opcode.RDCYC, ("reg",)),
    "MRS": (Opcode.MRS, ("reg", "sysreg")),
    "YIELD": (Opcode.YIELD, ()),
    "FENCE": (Opcode.FENCE, ()),
    "HALT": (Opcode.HALT, ()),
    "NOP": (Opcode.NOP, ()),
}

# The operands r0-r15 and s0-s15, one shared instance each: their tokens are
# looked up here before any regex runs.
_REGS = {f"r{i}": Reg(i) for i in range(NUM_REGS)}
_SYSREGS = {f"s{i}": SysReg(i) for i in range(NUM_SYSREGS)}

_LABEL_DEF = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):(.*)$")
# ASCII digits only: \d and int() would also take other scripts' digits
_MEM_RE = re.compile(r"^\[\s*r([0-9]+)\s*(?:([+-])\s*(0x[0-9a-fA-F]+|[0-9]+)\s*)?\]$")
_REG_RE = re.compile(r"^r([0-9]+)$")
_SYSREG_RE = re.compile(r"^s([0-9]+)$")
_IMM_RE = re.compile(r"^[+-]?(0x[0-9a-fA-F]+|[0-9]+)$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _split_operands(text: str) -> list:
    """Split on commas that sit outside [...] brackets; an empty last operand
    (a trailing comma) is dropped."""
    parts = text.split(",")
    if "[" in text or "]" in text:
        # the bracket depth at a comma is that of the text before it; where it
        # is not 0 (inside brackets, or after an unmatched "]"), the parts on
        # either side of the comma are one operand
        joined, depth = [], 0
        for part in parts:
            if depth:
                joined[-1] += "," + part
            else:
                joined.append(part)
            depth += part.count("[") - part.count("]")
        parts = joined
    parts = list(map(str.strip, parts))
    if not parts[-1]:
        parts.pop()
    return parts


def _parse_operand(tok: str, kind: str, labels: dict, lineno: int):
    if kind in ("reg", "reg_or_imm"):
        reg = _REGS.get(tok)
        if reg is not None:
            return reg
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
            try:  # int() refuses a decimal with a leading zero, such as 012
                return Imm(int(tok, 0))
            except ValueError:
                pass
        raise AssemblyError(lineno, f"expected immediate, got {tok!r}")
    if kind == "mem":
        m = _MEM_RE.match(tok)
        if m:
            base, sign, off = m.groups()
            base = int(base)
            if base >= NUM_REGS:
                raise AssemblyError(lineno, f"register r{base} out of range")
            try:
                off = int(off, 0) if off else 0
            except ValueError:  # a leading zero again, such as 08
                pass
            else:
                return Mem(base, -off if sign == "-" else off)
        raise AssemblyError(lineno, f"expected memory operand like [r1 + 8], got {tok!r}")
    if kind == "label":
        if not _IDENT_RE.match(tok):
            raise AssemblyError(lineno, f"expected label name, got {tok!r}")
        if tok not in labels:
            raise AssemblyError(lineno, f"undefined label {tok!r}")
        return LabelRef(labels[tok])
    if kind == "sysreg":
        sysreg = _SYSREGS.get(tok)
        if sysreg is not None:
            return sysreg
        m = _SYSREG_RE.match(tok)
        if not m:
            raise AssemblyError(lineno, f"expected system register like s0, got {tok!r}")
        idx = int(m.group(1))
        if idx >= NUM_SYSREGS:
            raise AssemblyError(lineno, f"system register s{idx} out of range")
        return SysReg(idx)
    raise AssemblyError(lineno, f"cannot parse operand {tok!r}")


def assemble(text: str) -> Program:
    """Assemble source text into a Program. Raises AssemblyError with line
    numbers: a label error (a duplicate, an empty program, a label past the
    last instruction) before any statement error, and statement errors in
    line order."""
    # one pass over the lines: (lineno, statement) with comments stripped, and
    # label -> instruction index
    labels: dict = {}
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if ":" in line and (m := _LABEL_DEF.match(line)):
            label = m.group(1)
            if label in labels:
                raise AssemblyError(lineno, f"duplicate label {label!r}")
            labels[label] = len(statements)
            line = m.group(2).strip()
            if not line:
                continue
        statements.append((lineno, line))
    count = len(statements)
    if count == 0:
        raise AssemblyError(0, "empty program")
    for name, idx in labels.items():
        if idx >= count:
            raise AssemblyError(0, f"label {name!r} points past the last instruction")

    instructions = []
    for lineno, stmt in statements:
        parts = stmt.split(None, 1)
        entry = _MNEMONICS.get(parts[0].upper())
        if entry is None:
            raise AssemblyError(lineno, f"unknown mnemonic {parts[0]!r}")
        opcode, sig = entry
        tokens = _split_operands(parts[1]) if len(parts) > 1 else []
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


def disassemble(program: Program) -> str:
    """Textual form whose reassembly yields the same instruction sequence."""
    targets = set()
    for instr in program.instructions:
        for op in instr.operands:
            if isinstance(op, LabelRef):
                targets.add(op.target)
    lines = []
    for idx, instr in enumerate(program.instructions):
        if idx in targets:
            lines.append(f"L{idx}:")
        lines.append(f"    {instr}")
    return "\n".join(lines) + "\n"

