"""Assembler round trips and operand parsing."""

import pytest

from transient_sim import isa
from transient_sim.isa import (
    KINDS,
    AssemblyError,
    Imm,
    Instruction,
    LabelRef,
    Mem,
    Opcode,
    Program,
    Reg,
    SysReg,
    assemble,
    disassemble,
)

KITCHEN_SINK = """
; every opcode at least once
    MOVI r1, 5
    MOVI r2, -3
    ADD r3, r1, r2
    ADD r3, r3, 10
    SHL r4, r3, 2
    AND r5, r4, 0xff
    CMP r5, r1
    BGE skip
    NOP
skip:
    MOVI r15, 0x8000
    CALL helper
    LD r6, [r14]
    ST [r14 + 8], r6
    FLUSH [r14 - 64]
    MRS r7, s3
    RDCYC r8
    FENCE
    HALT
helper:
    MOVI r9, 1
    RET
"""


def test_round_trip_through_disassembler():
    prog = assemble(KITCHEN_SINK)
    again = assemble(disassemble(prog))
    assert again.instructions == prog.instructions


def test_every_opcode_present():
    prog = assemble(KITCHEN_SINK)
    seen = {i.opcode for i in prog.instructions}
    missing = {o for o in Opcode if o not in seen and o is not Opcode.YIELD}
    assert not missing


def test_label_targets_resolve_to_indices():
    prog = assemble("start:\n    BGE end\n    NOP\nend:\n    HALT\n")
    bge = prog.instructions[0]
    assert bge.operands == (LabelRef(2),)
    assert prog.labels == {"start": 0, "end": 2}


def test_memory_operand_forms():
    prog = assemble(
        "    LD r1, [r2]\n"
        "    LD r1, [r2 + 8]\n"
        "    LD r1, [r2 - 16]\n"
        "    LD r1, [r2+0x40]\n"
        "    HALT\n"
    )
    offsets = [i.operands[1] for i in prog.instructions[:4]]
    assert offsets == [Mem(2, 0), Mem(2, 8), Mem(2, -16), Mem(2, 64)]


def test_comments_and_blank_lines_ignored():
    prog = assemble("\n; header\n    NOP ; trailing\n\n    HALT\n")
    assert [i.opcode for i in prog.instructions] == [Opcode.NOP, Opcode.HALT]


def test_operand_classes():
    prog = assemble("    MOVI r3, 12\n    MRS r1, s2\n    HALT\n")
    assert prog.instructions[0].operands == (Reg(3), Imm(12))
    assert prog.instructions[1].operands == (Reg(1), SysReg(2))


def test_label_on_same_line_as_statement():
    prog = assemble("top: NOP\n    BGE top\n    HALT\n")
    assert prog.labels["top"] == 0


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("    FROB r1\n    HALT\n", "unknown mnemonic"),
        ("    MOVI r1\n    HALT\n", "takes 2 operand"),
        ("    MOVI r16, 1\n    HALT\n", "out of range"),
        ("    MRS r1, s16\n    HALT\n", "out of range"),
        ("    MRS r1, r2\n    HALT\n", "expected system register"),
        ("    BGE nowhere\n    HALT\n", "undefined label"),
        ("a:\n    NOP\na:\n    HALT\n", "duplicate label"),
        ("    LD r1, r2\n    HALT\n", "expected memory operand"),
        ("    MOVI r1, r2\n    HALT\n", "expected immediate"),
        ("    ADD 5, r1, r2\n    HALT\n", "expected register"),
    ],
)
def test_parse_errors(source, fragment):
    with pytest.raises(AssemblyError, match=fragment):
        assemble(source)


def test_error_carries_line_number():
    with pytest.raises(AssemblyError, match="line 3"):
        assemble("    NOP\n    NOP\n    BAD\n    HALT\n")


def test_empty_program_rejected():
    with pytest.raises(AssemblyError, match="empty"):
        assemble("; nothing here\n")


def test_label_past_end_rejected():
    with pytest.raises(AssemblyError, match="past the last instruction"):
        assemble("    HALT\nend:\n")


def test_exactly_one_halt_required():
    with pytest.raises(AssemblyError, match="exactly one HALT"):
        assemble("    HALT\n    HALT\n")
    with pytest.raises(AssemblyError, match="exactly one HALT"):
        assemble("    NOP\n    RET\n")


def test_trailing_yield_accepted_instead_of_halt():
    prog = assemble("    NOP\n    YIELD\n")
    assert prog.instructions[-1].opcode is Opcode.YIELD



class TestDecode:
    def test_every_opcode_decodes_to_its_own_kind(self):
        program = assemble(KITCHEN_SINK.replace("    FENCE\n", "    FENCE\n    YIELD\n"))
        assert {instr.opcode for instr in program.instructions} == set(Opcode)
        for instr, entry in zip(program.instructions, program.decoded, strict=True):
            kind, name = entry[0], entry[-1]
            assert kind == KINDS[instr.opcode] == getattr(isa, "K_" + instr.opcode.name)
            assert name == instr.opcode.value
        assert sorted(KINDS.values()) == list(range(len(Opcode)))

    def test_unknown_opcode_raises_at_decode_time(self):
        bogus = Program((Instruction("BOGUS", ()), Instruction(Opcode.HALT, ())), {})
        with pytest.raises(KeyError):
            bogus.decoded
