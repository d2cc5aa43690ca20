"""Attack experiments built on the pipeline model.

Each attack is a deterministic experiment: plant a secret, run a victim
program whose transient behavior may copy the secret into the cache state of
a 256-line oracle array, then recover it with a flush+reload probe.  Success
means the recovered bytes equal the planted ones; everything else, including
recovering forwarded zeros instead of data, counts as failure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from .core import DEFAULT_SEED, MachineState, Trace, make_machine, run
from .isa import Program, assemble
from .memory import LINE_SIZE, MemorySystem, Privilege, PrivilegedFlushError
from .profiles import CpuProfile, get_profile

ORACLE_LINES = 256
ORACLE_BASE = 0x20_0000
TRAIN_ORACLE_BASE = 0x30_0000  # separate region so training never marks the real oracle
BOUND_ADDR = 0x1_0000
ARRAY_BASE = 0x1_1000
SECRET_BASE = 0x1_2000
KERNEL_BASE = 0x7_0000
STACK_TOP = 0x8000
DELAY_CELL = 0x1_4000
POINTER_SLOT = 0x1_4200
PUBLIC_CELL = 0x1_4400

SPEC_LOAD_LINE = 17  # which oracle line the bare speculative load touches
SYSREG_ID = 1
SYSREG_TEST_VALUE = 0xA5

DEFAULT_SECRET = bytes((41, 7, 255))

# Enum member passed on every probe; a module-level name is read faster
_USER = Privilege.USER

RSB_PAGE_FAULT_UNDEFINED = (
    "the return-stack attack evicts the stack line; unmapping it would "
    "fault the return itself, so a page-fault window is undefined"
)


class WindowTrigger(Enum):
    SPECULATIVE_LOAD = "speculative-load"
    CACHE_MISS = "cache-miss"
    PAGE_FAULT = "page-fault"


class SecretLocation(Enum):
    L1 = "L1"
    MAIN_MEMORY = "main-memory"


@dataclass(frozen=True)
class Scenario:
    """How the speculation window is opened and where the secret starts out.

    A speculative-load trigger caches one fixed probe line and nothing else,
    so secret_location is ignored for it.
    """

    window_trigger: WindowTrigger = WindowTrigger.CACHE_MISS
    secret_location: SecretLocation = SecretLocation.L1

    def describe(self) -> str:
        if self.window_trigger is WindowTrigger.SPECULATIVE_LOAD:
            return self.window_trigger.value
        return f"{self.window_trigger.value}/{self.secret_location.value}"


@dataclass
class AttackOutcome:
    variant: str
    profile: str
    scenario: Scenario | None
    success: bool
    recovered: tuple
    expected: tuple
    probe_latencies: tuple

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "profile": self.profile,
            "scenario": self.scenario.describe() if self.scenario else None,
            "success": self.success,
            "recovered_hex": "".join(
                f"{b:02x}" if b is not None else "??" for b in self.recovered
            ),
            "expected_hex": "".join(f"{b:02x}" for b in self.expected),
            "probe_latencies": list(self.probe_latencies),
        }


def flush_reload(mem: MemorySystem, victim, flush_is_privileged: bool) -> list[int]:
    """Three-phase user-mode probe of the oracle: flush every oracle line, run
    the victim step, then time a reload of each line; returns the reload
    latencies, which Latencies.single_hit decodes.  When flushes are
    privileged the flush raises PrivilegedFlushError and the victim never
    runs."""
    mem.flush_lines(ORACLE_BASE, ORACLE_LINES, _USER, flush_is_privileged)
    victim()
    return mem.probe_lines(ORACLE_BASE, ORACLE_LINES, _USER)


# -- victim programs -----------------------------------------------------------

# Bounds-checked read: architecturally the out-of-range index takes the branch
# and skips the gadget; the gadget only ever runs under a misprediction.
_V1_SRC = """
    LD r3, [r1+0]        ; bound (slow when evicted or unmapped)
    CMP r2, r3
    BGE skip             ; index >= bound: reject
    LD r5, [r4+0]        ; gadget: read array element
    SHL r6, r5, 6
    ADD r7, r6, r8
    LD r9, [r7+0]        ; gadget: touch oracle line for the value
skip:
    HALT
"""

# Same branch, but the shadow holds a single load of one fixed line.
_SPEC_LOAD_SRC = """
    LD r3, [r1+0]
    CMP r2, r3
    BGE skip
    LD r9, [r7+0]
skip:
    HALT
"""

# A callee that redirects its own return: the return stack still predicts the
# instruction after the call site, so the gadget there runs transiently while
# the real return target is fetched from the evicted stack line.  The gadget's
# first line reads the payload into r5: a memory load for the return-stack
# attack, a system-register read for V3a.
_RSB_SRC = """
    CALL victim
    {payload}
    SHL r6, r5, 6
    ADD r7, r6, r8
    LD r9, [r7+0]
done:
    HALT
victim:
    MOVI r10, 5          ; index of done
    ST [r15+0], r10      ; overwrite the saved return target
    FLUSH [r15+0]        ; force the return resolution to go to memory
    FENCE
    YIELD                ; hand-off point between contexts
    RET
"""
_RSB_DONE_PC = 5

# Direct read of a kernel cell from user mode; the fault is deferred to
# retirement, which then lands on the recovery HALT.
_V3_SRC = """
    LD r3, [r1+0]
    SHL r4, r3, 6
    ADD r5, r4, r8
    LD r9, [r5+0]
    HALT
"""
_V3_RECOVERY_PC = 4

# Store-to-load: the store's target address arrives late, the younger load
# may run ahead with the stale pointer and dereference it.
_V4_SRC = """
    LD r5, [r1+0]        ; produces the store's target address, slowly
    ST [r5+0], r6        ; retarget the pointer slot to a public cell
    LD r7, [r2+0]        ; read the slot, possibly ahead of the store
    LD r8, [r7+0]        ; dereference
    SHL r9, r8, 6
    ADD r10, r9, r11
    LD r12, [r10+0]
    HALT
"""

# Underflow probe.  After the context-switch point, a return-heavy chain
# deliberately drains whatever the return stack holds (a refill mitigation
# restocks it with benign entries; the drain pops them all), then a final
# return at a separately primed site arrives with the stack empty and its
# own slot evicted.  What the predictor does on that underflow decides
# whether the primed gadget runs.
_UNDERFLOW_SRC = """
    YIELD                ; context-switch point, mitigation hooks fire here
drain:
    RET                  ; chained through planted slots, one pop per pass
attack:
    RET                  ; the seeded site, reached with the stack drained
    LD r5, [r4+0]        ; primed target
    SHL r6, r5, 6
    ADD r7, r6, r8
    LD r9, [r7+0]
done:
    HALT
"""
_UNDERFLOW_DRAIN_PC = 1
_UNDERFLOW_RET_PC = 2
_UNDERFLOW_GADGET_PC = 3
_UNDERFLOW_DONE_PC = 7
_UNDERFLOW_PRIME_SLOT = STACK_TOP + 0x200


@functools.cache
def _victim(source: str) -> Program:
    """A victim source assembled once per process: the sources are constants,
    Program is frozen and run never mutates it."""
    return assemble(source)


def _outcome(
    variant: str,
    profile: CpuProfile,
    scenario: Scenario | None,
    expected: tuple | bytes,
    probes: list,
) -> AttackOutcome:
    """One recovered value per probe's latencies; the last probe's are kept."""
    expected = tuple(expected)
    recovered = tuple(map(profile.latencies.single_hit, probes))
    return AttackOutcome(
        variant=variant,
        profile=profile.name,
        scenario=scenario,
        success=recovered == expected,
        recovered=recovered,
        expected=expected,
        probe_latencies=tuple(probes[-1]) if probes else (),
    )


def _resolve_profile(profile) -> CpuProfile:
    return get_profile(profile) if isinstance(profile, str) else profile


def _run_from(st: MachineState, profile: CpuProfile, prog: Program, regs: dict,
              pc: int = 0) -> Trace:
    """Run prog from pc with the registers in regs (index -> value) set."""
    st.pc = pc
    for reg, value in regs.items():
        st.regs[reg] = value
    return run(prog, st, profile)


def _attack_probe(st: MachineState, profile: CpuProfile, prog: Program, regs: dict) -> list:
    """Flush+Reload's latencies around one victim run of prog from pc 0.  The
    attacker's probe always runs user-mode, whatever privilege the victim
    holds.  With flushes restricted to privileged code the probe cannot set
    up, so the attack comes back empty-handed: no latencies, no hit."""
    try:
        return flush_reload(st.mem, lambda: _run_from(st, profile, prog, regs),
                            profile.mitigations.privileged_flush)
    except PrivilegedFlushError:
        return []


def _plant(st: MachineState, base: int, secret: bytes) -> list:
    """Write the secret one byte per line from base; the bytes' addresses."""
    addrs = [base + k * LINE_SIZE for k in range(len(secret))]
    st.mem.cells.update(zip(addrs, secret))
    return addrs


def _place_secret(st: MachineState, addr: int, location: SecretLocation) -> None:
    """Cache the secret byte's line in L1 or evict it to main memory."""
    if location is SecretLocation.L1:
        st.mem.fill(addr)
    else:
        st.mem.invalidate_line(addr)


def run_spectre_v1(
    profile,
    scenario: Scenario = Scenario(),
    secret: bytes = DEFAULT_SECRET,
    seed: int = DEFAULT_SEED,
) -> AttackOutcome:
    """Bounds-check bypass.  Five in-bounds runs train the branch before each
    out-of-bounds run; the window trigger decides how long the bound takes to
    arrive and therefore how much of the gadget executes transiently."""
    profile = _resolve_profile(profile)
    if scenario.window_trigger is WindowTrigger.SPECULATIVE_LOAD:
        return _run_spec_load(profile, scenario, seed)
    st = make_machine(profile, seed)
    prog = _victim(_V1_SRC)
    st.mem.cells[BOUND_ADDR] = 16
    for i in range(16):
        st.mem.cells[ARRAY_BASE + i * LINE_SIZE] = i
    probes = []
    for secret_addr in _plant(st, SECRET_BASE, secret):
        st.mem.fill(BOUND_ADDR)
        for j in range(5):  # train the branch toward in-bounds
            regs = {1: BOUND_ADDR, 2: j, 4: ARRAY_BASE + j * LINE_SIZE, 8: TRAIN_ORACLE_BASE}
            _run_from(st, profile, prog, regs)
        if scenario.window_trigger is WindowTrigger.CACHE_MISS:
            st.mem.invalidate_line(BOUND_ADDR)
        else:
            st.mem.pages.set_mapped(BOUND_ADDR, False)
        _place_secret(st, secret_addr, scenario.secret_location)
        regs = {1: BOUND_ADDR, 2: 64, 4: secret_addr, 8: ORACLE_BASE}  # 64: way past the bound
        probes.append(_attack_probe(st, profile, prog, regs))
        if scenario.window_trigger is WindowTrigger.PAGE_FAULT:
            st.mem.pages.set_mapped(BOUND_ADDR, True)
    return _outcome("V1", profile, scenario, secret, probes)


def _run_spec_load(profile: CpuProfile, scenario: Scenario, seed: int) -> AttackOutcome:
    st = make_machine(profile, seed)
    st.mem.cells[BOUND_ADDR] = 16
    st.mem.invalidate_line(BOUND_ADDR)
    regs = {1: BOUND_ADDR, 2: 64, 7: ORACLE_BASE + SPEC_LOAD_LINE * LINE_SIZE}
    probe = _attack_probe(st, profile, _victim(_SPEC_LOAD_SRC), regs)
    return _outcome("V1", profile, scenario, (SPEC_LOAD_LINE,), [probe])


def run_spectre_rsb(
    profile,
    scenario: Scenario = Scenario(),
    secret: bytes = DEFAULT_SECRET,
    seed: int = DEFAULT_SEED,
) -> AttackOutcome:
    """Return-stack mismatch.  The callee overwrites its saved return target,
    so the predicted return (gadget after the call site) diverges from the
    architectural one; the window lasts until the evicted stack line arrives."""
    profile = _resolve_profile(profile)
    if scenario.window_trigger is WindowTrigger.PAGE_FAULT:
        raise ValueError(RSB_PAGE_FAULT_UNDEFINED)
    st = make_machine(profile, seed)
    prog = _victim(_RSB_SRC.format(payload="LD r5, [r4+0]"))
    st.benign_return_pc = _RSB_DONE_PC
    probes = []
    for secret_addr in _plant(st, SECRET_BASE, secret):
        _place_secret(st, secret_addr, scenario.secret_location)
        regs = {4: secret_addr, 8: ORACLE_BASE, 15: STACK_TOP}
        probes.append(_attack_probe(st, profile, prog, regs))
    return _outcome("RSB", profile, scenario, secret, probes)


def run_meltdown_v3(
    profile,
    secret: bytes = DEFAULT_SECRET,
    seed: int = DEFAULT_SEED,
) -> AttackOutcome:
    """User-mode read of a kernel cell.  The fault defers to retirement and the
    dependent chain sees whatever the pipeline forwards: the real value leaks
    it, a forwarded zero lights oracle line 0 instead and the run fails."""
    profile = _resolve_profile(profile)
    st = make_machine(profile, seed)
    prog = _victim(_V3_SRC)
    st.privilege = Privilege.USER
    st.recovery_pc = _V3_RECOVERY_PC
    st.mem.pages.set_privileged(KERNEL_BASE, True)
    probes = []
    for secret_addr in _plant(st, KERNEL_BASE, secret):
        st.mem.fill(secret_addr)  # classic setup: the kernel touched it recently
        probes.append(_attack_probe(st, profile, prog, {1: secret_addr, 8: ORACLE_BASE}))
    return _outcome("V3", profile, None, secret, probes)


def run_meltdown_v3a(profile, seed: int = DEFAULT_SEED) -> AttackOutcome:
    """System-register read from user mode, carried by the return-stack
    harness: the register read and its oracle touch only ever run transiently,
    so success hinges on whether the core forwards the register's value."""
    profile = _resolve_profile(profile)
    st = make_machine(profile, seed)
    prog = _victim(_RSB_SRC.format(payload=f"MRS r5, s{SYSREG_ID}"))
    st.benign_return_pc = _RSB_DONE_PC
    st.privilege = Privilege.USER
    st.sysregs[SYSREG_ID] = SYSREG_TEST_VALUE
    probe = _attack_probe(st, profile, prog, {8: ORACLE_BASE, 15: STACK_TOP})
    return _outcome("V3a", profile, None, (SYSREG_TEST_VALUE,), [probe])


def run_spectre_v4(
    profile,
    secret: bytes = DEFAULT_SECRET,
    seed: int = DEFAULT_SEED,
) -> AttackOutcome:
    """Store-to-load bypass.  A pointer slot holds the secret's address; the
    victim overwrites it with a public address and immediately reads through
    it.  If the load runs ahead of the slow store, the stale pointer gets
    dereferenced transiently before the ordering violation forces a replay."""
    profile = _resolve_profile(profile)
    st = make_machine(profile, seed)
    prog = _victim(_V4_SRC)
    st.mem.cells[DELAY_CELL] = POINTER_SLOT
    st.mem.cells[PUBLIC_CELL] = 256  # dereferences to a line outside the oracle
    regs = {1: DELAY_CELL, 2: POINTER_SLOT, 6: PUBLIC_CELL, 11: ORACLE_BASE}
    probes = []
    for secret_addr in _plant(st, SECRET_BASE, secret):
        st.mem.cells[POINTER_SLOT] = secret_addr  # stale pointer, victim-visible
        st.mem.fill(POINTER_SLOT)
        st.mem.fill(secret_addr)
        st.mem.fill(PUBLIC_CELL)
        st.mem.invalidate_line(DELAY_CELL)
        probes.append(_attack_probe(st, profile, prog, regs))
    return _outcome("V4", profile, None, secret, probes)


def run_refill_bypass(profile, seed: int = DEFAULT_SEED) -> AttackOutcome:
    """Underflow fallback check.  An attacker first retires a return whose
    target is the gadget, seeding the target buffer for that return site.
    The victim then runs a return chain that drains the return stack, so the
    seeded site executes on an empty stack with its own slot evicted.  Cores
    that fall back to the target buffer on underflow predict straight into
    the gadget; refilling the stack at the context switch only feeds the
    drain, and only disabling the fallback closes the hole."""
    profile = _resolve_profile(profile)
    st = make_machine(profile, seed)
    prog = _victim(_UNDERFLOW_SRC)
    st.benign_return_pc = _UNDERFLOW_DONE_PC
    secret = SYSREG_TEST_VALUE
    st.mem.cells[SECRET_BASE] = secret

    # phase 1: architecturally return into the gadget to seed the target buffer
    st.mem.cells[_UNDERFLOW_PRIME_SLOT] = _UNDERFLOW_GADGET_PC
    st.mem.fill(_UNDERFLOW_PRIME_SLOT)
    regs = {4: SECRET_BASE, 8: TRAIN_ORACLE_BASE, 15: _UNDERFLOW_PRIME_SLOT}
    _run_from(st, profile, prog, regs, pc=_UNDERFLOW_RET_PC)

    # phase 2: plant the drain chain: one self-slot per stack entry a refill
    # could install, then the seeded site, then the benign final target
    depth = profile.rsb_size
    for k in range(depth - 1):
        st.mem.cells[STACK_TOP + 8 * k] = _UNDERFLOW_DRAIN_PC
    st.mem.cells[STACK_TOP + 8 * (depth - 1)] = _UNDERFLOW_RET_PC
    attack_slot = STACK_TOP + 8 * depth
    st.mem.cells[attack_slot] = _UNDERFLOW_DONE_PC
    for off in range(0, 8 * depth + 1, LINE_SIZE):
        st.mem.fill(STACK_TOP + off)  # drains resolve fast
    st.mem.fill(SECRET_BASE)
    st.rsb.flush()  # the victim context starts with an empty stack
    st.mem.invalidate_line(attack_slot)  # the seeded site resolves slowly

    # the victim enters through the context-switch point
    probe = _attack_probe(st, profile, prog, {4: SECRET_BASE, 8: ORACLE_BASE, 15: STACK_TOP})
    return _outcome("RSB", profile, None, (secret,), [probe])


# variant -> its runner as (profile, scenario, secret, seed); the variants
# without a scenario ignore it, and v3a, which reads a system register, the secret
_RUNNERS = {
    "v1": run_spectre_v1,
    "v3": lambda profile, _scenario, secret, seed: run_meltdown_v3(profile, secret, seed),
    "v3a": lambda profile, _scenario, _secret, seed: run_meltdown_v3a(profile, seed),
    "v4": lambda profile, _scenario, secret, seed: run_spectre_v4(profile, secret, seed),
    "rsb": run_spectre_rsb,
}
VARIANTS = tuple(_RUNNERS)


def run_attack(variant: str, profile, scenario: Scenario = Scenario(),
               secret: bytes = DEFAULT_SECRET, seed: int = DEFAULT_SEED) -> AttackOutcome:
    """One attack variant of VARIANTS, by its command-line name."""
    if variant not in _RUNNERS:
        raise ValueError(f"unknown attack variant {variant!r}; expected one of {VARIANTS}")
    return _RUNNERS[variant](profile, scenario, secret, seed)


# -- the susceptibility matrix ---------------------------------------------------

MATRIX_PROFILES = ("cortex_a53", "cortex_a8", "cortex_a9", "cortex_a72", "intel_i7")

# Golden susceptibility per cell and profile.
EXPECTED_SUSCEPTIBILITY = {
    "spec-load":         {"cortex_a53": False, "cortex_a8": False, "cortex_a9": True,  "cortex_a72": True,  "intel_i7": True},
    "v1-cache-miss-l1":  {"cortex_a53": False, "cortex_a8": False, "cortex_a9": False, "cortex_a72": True,  "intel_i7": True},
    "v1-cache-miss-mem": {"cortex_a53": False, "cortex_a8": False, "cortex_a9": False, "cortex_a72": True,  "intel_i7": True},
    "v1-page-fault-l1":  {"cortex_a53": False, "cortex_a8": False, "cortex_a9": True,  "cortex_a72": True,  "intel_i7": True},
    "v1-page-fault-mem": {"cortex_a53": False, "cortex_a8": False, "cortex_a9": True,  "cortex_a72": True,  "intel_i7": True},
    "rsb-l1":            {"cortex_a53": False, "cortex_a8": False, "cortex_a9": False, "cortex_a72": True,  "intel_i7": True},
    "rsb-mem":           {"cortex_a53": False, "cortex_a8": False, "cortex_a9": False, "cortex_a72": False, "intel_i7": True},
    "v3":                {"cortex_a53": False, "cortex_a8": False, "cortex_a9": False, "cortex_a72": False, "intel_i7": True},
    "v3a":               {"cortex_a53": False, "cortex_a8": False, "cortex_a9": False, "cortex_a72": True,  "intel_i7": True},
    "v4":                {"cortex_a53": False, "cortex_a8": False, "cortex_a9": False, "cortex_a72": True,  "intel_i7": True},
}

MATRIX_CELLS = tuple(EXPECTED_SUSCEPTIBILITY)

_L1, _MEM = SecretLocation.L1, SecretLocation.MAIN_MEMORY
# each grid cell's (variant, scenario) for run_attack
_CELLS = {
    "spec-load": ("v1", Scenario(WindowTrigger.SPECULATIVE_LOAD)),
    "v1-cache-miss-l1": ("v1", Scenario(WindowTrigger.CACHE_MISS, _L1)),
    "v1-cache-miss-mem": ("v1", Scenario(WindowTrigger.CACHE_MISS, _MEM)),
    "v1-page-fault-l1": ("v1", Scenario(WindowTrigger.PAGE_FAULT, _L1)),
    "v1-page-fault-mem": ("v1", Scenario(WindowTrigger.PAGE_FAULT, _MEM)),
    "rsb-l1": ("rsb", Scenario(WindowTrigger.CACHE_MISS, _L1)),
    "rsb-mem": ("rsb", Scenario(WindowTrigger.CACHE_MISS, _MEM)),
    "v3": ("v3", Scenario()),
    "v3a": ("v3a", Scenario()),
    "v4": ("v4", Scenario()),
}


def run_matrix(
    profiles=MATRIX_PROFILES,
    cells=MATRIX_CELLS,
    secret: bytes = DEFAULT_SECRET,
    seed: int = DEFAULT_SEED,
) -> dict:
    """All requested attack cells against all requested profiles.  Profiles
    may be names or CpuProfile objects (e.g. with mitigations applied);
    results are keyed by cell, then profile name."""
    results: dict = {}
    for cell in cells:
        if cell not in _CELLS:
            raise ValueError(f"unknown matrix cell {cell!r}")
        variant, scenario = _CELLS[cell]
        results[cell] = {}
        for prof in profiles:
            prof = _resolve_profile(prof)
            results[cell][prof.name] = run_attack(variant, prof, scenario, secret, seed)
    return results


def matrix_susceptibility(results: dict) -> dict:
    return {
        cell: {name: outcome.success for name, outcome in row.items()}
        for cell, row in results.items()
    }


def matrix_mismatches(results: dict) -> list:
    """Cells whose outcome disagrees with the golden matrix."""
    out = []
    for cell, row in results.items():
        for name, outcome in row.items():
            expected = EXPECTED_SUSCEPTIBILITY.get(cell, {}).get(name)
            if expected is not None and outcome.success != expected:
                out.append((cell, name, expected, outcome.success))
    return out
