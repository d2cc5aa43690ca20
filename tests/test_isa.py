"""Assembler round trips and operand parsing."""

import importlib.util
import random
import re
import sys
from pathlib import Path

import pytest

from _reference import (
    generate_loop_program,
    generate_pointer_program,
    generate_program,
    reference_assemble,
    reference_decode,
    reference_split_operands,
)
from transient_sim import attacks, isa
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
        ("    MOVI r1, 012\n    HALT\n", "line 1: expected immediate, got '012'"),
        ("    LD r1, [r2 + 08]\n    HALT\n", r"line 1: expected memory operand like \[r1 \+ 8\]"),
        # digits of other scripts, which int() would read as ASCII ones
        ("    MOVI r\u0661, 5\n    HALT\n", "line 1: expected register, got 'r\u0661'"),
        ("    MOVI r1, \u0665\n    HALT\n", "line 1: expected immediate, got '\u0665'"),
        ("    ADD r1, r2, -\uff18\n    HALT\n", "line 1: expected immediate, got '-\uff18'"),
        ("    LD r2, [r\u0662 + 8]\n    HALT\n", r"line 1: expected memory .*'\[r\u0662 \+ 8\]'"),
        ("    LD r2, [r2 + \u0668]\n    HALT\n", r"line 1: expected memory .*'\[r2 \+ \u0668\]'"),
        ("    MRS r1, s\u0661\n    HALT\n", "line 1: expected system register .*, got 's\u0661'"),
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


# -- agreement with the reference assembler --------------------------------------

# The sources attacks.py assembles: its victim programs, with the return-stack
# victim's gadget filled in as the attacks fill it.
_VICTIMS = list(dict.fromkeys(
    source.format(payload=payload)
    for name, source in sorted(vars(attacks).items()) if name.endswith("_SRC")
    for payload in ("LD r5, [r4+0]", f"MRS r5, s{attacks.SYSREG_ID}")
))
_BENCH = Path(__file__).resolve().parent.parent / "bench"
_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
_OTHER_DIGIT = re.compile(r"(?![0-9])\d")  # a decimal digit of another script


def _mutate(rng: random.Random, lines: list) -> None:
    """Change one statement line of `lines` in place, mostly into one that
    the assembler must reject."""
    at = rng.choice([k for k, line in enumerate(lines) if line.strip() and not line.endswith(":")])
    line = lines[at]
    roll = rng.randrange(16)
    if roll == 0:  # a comma inside the brackets, or anywhere
        line = line.replace(" + ", ", ", 1) if "[" in line else line.replace(" ", ", ", 2)
    elif roll == 1:
        k = rng.randrange(len(line) + 1)
        line = line[:k] + "," + line[k:]
    elif roll == 2:  # unbalanced brackets
        k = rng.randrange(len(line) + 1)
        line = line.replace(rng.choice("[]"), "", 1) if "[" in line else line[:k] + rng.choice("[]") + line[k:]
    elif roll == 3:  # a doubled or a trailing comma
        line = line.replace(",", ",,", 1) if "," in line else line + ","
    elif roll == 4:
        line += ","
    elif roll == 5:  # tabs and lower case
        line = "\t" + line.strip().replace(" ", "\t", 1)
    elif roll == 6:
        line = line.lower()
    elif roll == 7:
        lines.insert(at, "x: y: NOP")
    elif roll == 8:  # registers out of range or spelt with a leading zero
        line = re.sub(r"\br\d+", rng.choice(["r16", "r01", "r00", "r99", "5"]), line, count=1)
    elif roll == 9:
        line = f"    MRS r1, {rng.choice(['s16', 's01', 'r2', 's15'])}"
    elif roll == 10:  # leading zeros, hex and other decimal digits
        line = re.sub(r"(?<![\wx])(\d+)", rng.choice(["0\\1", "00", "0x\\1"]), line, count=1)
    elif roll == 11:
        line = re.sub(r"(?<![\wx])\d+", lambda m: m[0].translate(_DIGITS), line)
    elif roll == 12:  # unknown mnemonics and wrong operand counts
        line = line.replace(line.split()[0], line.split()[0] + "X", 1)
    elif roll == 13:
        line = line.rsplit(",", 1)[0] if "," in line else line + ", r1"
    elif roll == 14:  # labels: duplicated, undefined, or past the end
        lines.insert(at, lines[at - 1] if lines[at - 1].endswith(":") else "dup:\ndup:")
        if rng.random() < 0.3:
            lines.append("after_the_end:")
    else:
        line = re.sub(r"(BGE|CALL) \w+", r"\1 nowhere", line) if "B" in line else "end: " + line
    lines[at] = line


# a fragment of each message the assembler can give
_CHECKS = (
    "unknown mnemonic", "operand(s), got", "out of range (r0-r15)", "register r16 out of range",
    "system register s16 out of range", "expected register", "expected immediate",
    "expected memory operand", "expected label name", "undefined label", "duplicate label",
    "expected system register", "points past the last instruction", "exactly one HALT",
)


def _outcome(assembler, decode, source):
    try:
        program = assembler(source)
    except ValueError as exc:  # AssemblyError, or the reference's leading-zero escape
        return type(exc), str(exc)
    return program.instructions, program.labels, tuple(map(decode, program.instructions))


def _engine_workload_sources() -> list:
    """The 181 programs the benchmark's engine workload assembles at seed 1
    (bench/run.py's ACYCLIC_PROGRAMS, LOOP_PROGRAMS and POINTER_PROGRAMS)."""
    spec = importlib.util.spec_from_file_location("bench_inputs", _BENCH / "inputs.py")
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    spec.loader.exec_module(inputs)
    return [program.text for program in inputs.engine_inputs(1, 120, 1, 60)]


def _differential_sources(seed: int) -> list:
    rng = random.Random(seed)
    bases = _VICTIMS + [KITCHEN_SINK] + _engine_workload_sources()
    for _ in range(20):
        bases += [generate_program(rng).text, generate_pointer_program(rng).text,
                  generate_loop_program(rng).text]
    sources = list(bases)
    while len(sources) < 2000:
        lines = rng.choice(bases).splitlines()
        for _ in range(rng.choice((1, 1, 2))):
            _mutate(rng, lines)
        sources.append("\n".join(lines) + "\n")
    return sources


def test_assembler_agrees_with_the_reference_on_seeded_sources():
    sources = _differential_sources(2024)
    assembled, messages, leading_zeros, other_digits = 0, set(), 0, 0
    for source in sources:
        want = _outcome(reference_assemble, reference_decode, source)
        got = _outcome(isa.assemble, isa._decode, source)
        if _OTHER_DIGIT.search(source) and (want[0] is not AssemblyError or got != want):
            # the reference reads another script's digits as ASCII ones: where
            # it accepts, or fails on a later line, the token with one fails
            assert got[0] is AssemblyError and _OTHER_DIGIT.search(got[1]), (source, got)
            other_digits += 1
            continue
        if want[0] is ValueError:  # int(tok, 0) refused a leading zero: now an AssemblyError
            assert got[0] is AssemblyError, source
            message = re.fullmatch(r"line \d+: expected (immediate|memory operand like \[r1 \+ 8\]), "
                                   r"got '(.*)'", got[1])
            runs = re.findall(r"(?<![\dxX])\d\d+", message[2]) if message else []
            assert any(int(run[0]) == 0 for run in runs), (source, got)
            leading_zeros += 1
            continue
        assert got == want, source
        if want[0] is AssemblyError:
            messages.add(want[1])
        else:
            assembled += 1
    assert len(sources) >= 2000
    # the mutations reach every check the assembler makes
    assert assembled >= 300 and leading_zeros >= 10 and other_digits >= 10, \
        (assembled, leading_zeros, other_digits)
    assert {fragment for fragment in _CHECKS for message in messages if fragment in message} \
        == set(_CHECKS), messages


def test_operand_split_agrees_with_the_character_loop():
    rng = random.Random(7)
    for _ in range(20000):
        text = "".join(rng.choice("[],, r1+\t") for _ in range(rng.randrange(12)))
        assert isa._split_operands(text) == reference_split_operands(text), repr(text)

