"""Per-core policy bundles.

Each profile packages the knobs that decide whether and how far speculation
proceeds: pipeline kind, squash policy for in-flight cache fills, control
resolve latencies, store-to-load speculation, fault-value forwarding, RSB
shape, cache geometry, and the verified eviction-pattern parameters.

The numeric constants are calibration, not datasheet truth: they are chosen so
the five bundled cores reproduce the susceptibility results they are modeled
after, and every one of them can be overridden from configuration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum

from .memory import CacheGeometry, EvictionParams, Latencies


class PipelineKind(Enum):
    IN_ORDER = "in-order"
    OUT_OF_ORDER = "out-of-order"


class SquashPolicy(Enum):
    CANCEL_INFLIGHT_FILLS = "cancel-inflight-fills"
    KEEP_INFLIGHT_FILLS = "keep-inflight-fills"


class RsbUnderflow(Enum):
    STOP_PREDICTING = "stop-predicting"
    RING_BUFFER = "ring-buffer"
    SWITCH_TO_BTB = "switch-to-btb"


class ExceptionPolicy(Enum):
    DEFERRED_FORWARD_VALUE = "deferred-forward-value"
    DEFERRED_FORWARD_ZERO = "deferred-forward-zero"


RSB_MIN = 4
RSB_MAX = 32


@dataclass(frozen=True)
class MitigationSet:
    """Deployable countermeasures; fields default to 'off'.

    rsb_flush_on_cs and rsb_refill_on_cs are alternatives for the same hook
    (what to do with the RSB on a context switch) and cannot be combined.
    """

    privileged_flush: bool = False
    pmu_noise_amplitude: int = 0
    rsb_flush_on_cs: bool = False
    rsb_refill_on_cs: bool = False
    btb_fallback_disabled: bool = False

    def __post_init__(self):
        if self.rsb_flush_on_cs and self.rsb_refill_on_cs:
            raise ValueError("rsb_flush_on_cs and rsb_refill_on_cs are mutually exclusive")
        if self.pmu_noise_amplitude < 0:
            raise ValueError("pmu_noise_amplitude must be >= 0")


@dataclass(frozen=True)
class CpuProfile:
    name: str
    pipeline: PipelineKind
    rsb_size: int
    rsb_underflow: RsbUnderflow
    squash_policy: SquashPolicy
    branch_resolve_extra: int
    return_resolve_extra: int
    stl_speculation: bool
    exception_policy: ExceptionPolicy
    sysreg_transient_forward: bool
    l1: CacheGeometry
    l2: CacheGeometry
    latencies: Latencies = field(default_factory=Latencies)
    eviction_params: EvictionParams | None = None
    mitigations: MitigationSet = field(default_factory=MitigationSet)

    def __post_init__(self):
        if not RSB_MIN <= self.rsb_size <= RSB_MAX:
            raise ValueError(
                f"rsb_size must be within [{RSB_MIN}, {RSB_MAX}], got {self.rsb_size}"
            )
        if self.branch_resolve_extra < 0 or self.return_resolve_extra < 0:
            raise ValueError("resolve-extra constants must be non-negative")

    def with_overrides(self, **changes) -> "CpuProfile":
        return dataclasses.replace(self, **changes)


_L1_ARM = CacheGeometry(sets=128, ways=4)      # 32 KB
_L1_INTEL = CacheGeometry(sets=64, ways=8)     # 32 KB
_L2_512K = CacheGeometry(sets=512, ways=16)
_L2_256K_8W = CacheGeometry(sets=512, ways=8)
_L2_1M = CacheGeometry(sets=1024, ways=16)


def _build_profiles() -> dict:
    profiles = [
        CpuProfile(
            name="cortex_a53",
            pipeline=PipelineKind.IN_ORDER,
            rsb_size=8,
            rsb_underflow=RsbUnderflow.STOP_PREDICTING,
            squash_policy=SquashPolicy.CANCEL_INFLIGHT_FILLS,
            branch_resolve_extra=5,
            return_resolve_extra=0,
            stl_speculation=False,
            exception_policy=ExceptionPolicy.DEFERRED_FORWARD_ZERO,
            sysreg_transient_forward=False,
            l1=_L1_ARM,
            l2=_L2_512K,
            eviction_params=EvictionParams(loops=21, shift=2, accesses=5),
        ),
        CpuProfile(
            name="cortex_a8",
            pipeline=PipelineKind.IN_ORDER,
            rsb_size=4,
            rsb_underflow=RsbUnderflow.STOP_PREDICTING,
            squash_policy=SquashPolicy.CANCEL_INFLIGHT_FILLS,
            branch_resolve_extra=5,
            return_resolve_extra=0,
            stl_speculation=False,
            exception_policy=ExceptionPolicy.DEFERRED_FORWARD_ZERO,
            sysreg_transient_forward=False,
            l1=_L1_ARM,
            l2=_L2_256K_8W,
            eviction_params=None,  # no verified pattern; eviction falls back to sweeping
        ),
        CpuProfile(
            name="cortex_a9",
            pipeline=PipelineKind.OUT_OF_ORDER,
            rsb_size=8,
            rsb_underflow=RsbUnderflow.STOP_PREDICTING,
            squash_policy=SquashPolicy.CANCEL_INFLIGHT_FILLS,
            # short resolve window: a delayed bound check squashes the leak
            # gadget before its probe fill lands, while a lone transient load
            # still completes in time
            branch_resolve_extra=5,
            return_resolve_extra=0,
            stl_speculation=False,
            exception_policy=ExceptionPolicy.DEFERRED_FORWARD_ZERO,
            sysreg_transient_forward=False,
            l1=_L1_ARM,
            l2=_L2_512K,
            eviction_params=EvictionParams(loops=10, shift=3, accesses=6),
        ),
        CpuProfile(
            name="cortex_a72",
            pipeline=PipelineKind.OUT_OF_ORDER,
            rsb_size=16,
            rsb_underflow=RsbUnderflow.STOP_PREDICTING,
            squash_policy=SquashPolicy.KEEP_INFLIGHT_FILLS,
            branch_resolve_extra=20,
            return_resolve_extra=0,
            stl_speculation=True,
            exception_policy=ExceptionPolicy.DEFERRED_FORWARD_ZERO,
            sysreg_transient_forward=True,
            l1=_L1_ARM,
            l2=_L2_1M,
            eviction_params=EvictionParams(loops=7, shift=1, accesses=16),
        ),
        CpuProfile(
            name="intel_i7",
            pipeline=PipelineKind.OUT_OF_ORDER,
            rsb_size=16,
            rsb_underflow=RsbUnderflow.SWITCH_TO_BTB,
            squash_policy=SquashPolicy.KEEP_INFLIGHT_FILLS,
            branch_resolve_extra=20,
            return_resolve_extra=20,
            stl_speculation=True,
            exception_policy=ExceptionPolicy.DEFERRED_FORWARD_VALUE,
            sysreg_transient_forward=True,
            l1=_L1_INTEL,
            l2=_L2_256K_8W,
            eviction_params=None,  # line flushes are available instead
        ),
    ]
    return {p.name: p for p in profiles}


PROFILES: dict = _build_profiles()


def get_profile(name: str) -> CpuProfile:
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ValueError(f"unknown profile {name!r}; known profiles: {known}") from None
