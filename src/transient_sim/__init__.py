"""Deterministic, cycle-accounted simulator of speculative execution attacks.

Five small CPU profiles (two in-order, three out-of-order) run a toy ISA
through a speculating pipeline with an L1/L2/DRAM hierarchy, return-stack and
branch predictors, and deferred exception handling.  On top of the pipeline
sit the classic transient-execution experiments (bounds-check bypass,
deferred-fault reads, store-to-load bypass, return-stack mismatch), a
return-stack covert channel with bandwidth and error accounting, and the
countermeasure toggles that close or fail to close each hole.
"""

from .core import MachineState, Trace, make_machine, run
from .covert import ChannelConfig, ChannelReport, PrivilegedFlushError, run_channel, sweep_bits
from .isa import Opcode, Program, assemble, disassemble
from .memory import (
    CycleCounter,
    Latencies,
    MemorySystem,
    Privilege,
    evict_with_pattern,
    sweep_evict,
)
from .mitigations import MitigationSet, apply_mitigations, demo_refill_bypass, pmu_noise_effect
from .profiles import PROFILES, CpuProfile, get_profile
from .attacks import (
    AttackOutcome,
    EXPECTED_SUSCEPTIBILITY,
    Scenario,
    SecretLocation,
    WindowTrigger,
    flush_reload,
    matrix_mismatches,
    matrix_susceptibility,
    run_matrix,
    run_meltdown_v3,
    run_meltdown_v3a,
    run_spectre_rsb,
    run_spectre_v1,
    run_spectre_v4,
)

__version__ = "0.1.0"

__all__ = [
    "AttackOutcome",
    "ChannelConfig",
    "ChannelReport",
    "CpuProfile",
    "CycleCounter",
    "EXPECTED_SUSCEPTIBILITY",
    "Latencies",
    "MachineState",
    "MemorySystem",
    "MitigationSet",
    "Opcode",
    "PROFILES",
    "Privilege",
    "PrivilegedFlushError",
    "Program",
    "Scenario",
    "SecretLocation",
    "Trace",
    "WindowTrigger",
    "apply_mitigations",
    "assemble",
    "demo_refill_bypass",
    "disassemble",
    "evict_with_pattern",
    "flush_reload",
    "get_profile",
    "make_machine",
    "matrix_mismatches",
    "matrix_susceptibility",
    "pmu_noise_effect",
    "run",
    "run_channel",
    "run_matrix",
    "run_meltdown_v3",
    "run_meltdown_v3a",
    "run_spectre_rsb",
    "run_spectre_v1",
    "run_spectre_v4",
    "sweep_bits",
    "sweep_evict",
    "__version__",
]
