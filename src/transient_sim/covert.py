"""Return-stack covert channel between two co-scheduled contexts.

The sender encodes a b-bit symbol by stuffing the return stack buffer with
the address of one of 2**b disclosure gadgets.  After a context switch the
receiver executes a return whose on-stack address resolves slowly; the
predictor supplies the sender's gadget address, the gadget touches one
probe line per symbol value, and a Flush+Reload pass over the 2**b lines
recovers the symbol.  A symbol decodes iff exactly one probe line hits;
anything else is an erasure.

The channel is modelled at the predictor/cache-structure level rather than
through the full pipeline so that million-symbol runs stay cheap.  The one
microarchitectural gate kept from the pipeline model is window admission:
the speculative probe fill survives only on cores that keep in-flight fills
on squash, or whose return resolution is delayed enough for the fill to
complete first.  Cores that cancel in-flight fills and resolve returns
immediately never land the signal and read as all-erasure.  The rule is
checked against the pipeline in tests/test_covert.py, which runs the
receiver's return into the gadget `MOVI r14, <probe line>; LD r9, [r14+0]`.

Per-symbol cycle accounting is fixed by construction:

    cost(b) = 2 * context_switch_cost
            + 2 * rsb_fill_depth          (sender pushes; host work stays O(rsb_size))
            + probe_cost_per_line * 2**b  (receiver flush+reload)

so channel bandwidth is b / cost(b) bits per cycle.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from .core import DEFAULT_SEED, MachineState, context_switch, make_machine, predict_return
from .memory import LINE_SIZE, Privilege
from .profiles import CpuProfile, SquashPolicy

MIN_BITS = 1
MAX_BITS = 6

# Address plan.  Probe lines live on their own pages; gadget and return
# addresses are code-space constants only ever compared for equality.
PROBE_BASE = 0x40_0000
GADGET_BASE = 0x50_0000
RECEIVER_RET_PC = 0x60_0000
RECEIVER_CONT_PC = 0x60_0040
BENIGN_RETURN_PC = 0x60_0080
INTERLOPER_PC = 0x60_00C0
# One line past the widest (b=6) probe window, so an interloper touch can
# never masquerade as a decoded symbol.
INTERLOPER_LINE = PROBE_BASE + (1 << MAX_BITS) * LINE_SIZE

DEFAULT_MESSAGE = b"HI"

# Enum members compared on every symbol; a module-level name is read faster
_USER = Privilege.USER
_KEEP_INFLIGHT_FILLS = SquashPolicy.KEEP_INFLIGHT_FILLS


class PrivilegedFlushError(PermissionError):
    """Raised when the user-mode receiver must flush while flushes are privileged."""


def gadget_address(symbol: int) -> int:
    return GADGET_BASE + symbol


def probe_line(symbol: int) -> int:
    return PROBE_BASE + symbol * LINE_SIZE


@dataclass(frozen=True)
class ChannelConfig:
    """Tunable constants for one channel run."""

    bits_per_cs: int = 3
    context_switch_cost: int = 1000
    probe_cost_per_line: int = 150
    noise_probability: float = 0.0
    rsb_fill_depth: int | None = None  # None: use the profile's rsb_size

    def __post_init__(self) -> None:
        if not MIN_BITS <= self.bits_per_cs <= MAX_BITS:
            raise ValueError(
                f"bits_per_cs must be in [{MIN_BITS}, {MAX_BITS}], "
                f"got {self.bits_per_cs}"
            )
        if self.context_switch_cost < 0 or self.probe_cost_per_line < 0:
            raise ValueError("cycle costs must be non-negative")
        if not 0.0 <= self.noise_probability <= 1.0:
            raise ValueError("noise_probability must be in [0, 1]")
        if self.rsb_fill_depth is not None and self.rsb_fill_depth < 1:
            raise ValueError("rsb_fill_depth must be at least 1")

    def fill_depth(self, profile: CpuProfile) -> int:
        if self.rsb_fill_depth is not None:
            return self.rsb_fill_depth
        return profile.rsb_size

    def symbol_cost(self, profile: CpuProfile) -> int:
        return (
            2 * self.context_switch_cost
            + 2 * self.fill_depth(profile)
            + self.probe_cost_per_line * (1 << self.bits_per_cs)
        )


def required_memory_bytes(bits_per_cs: int) -> int:
    """Receiver probe footprint: one line per symbol value."""
    return (1 << bits_per_cs) * LINE_SIZE


@dataclass
class ChannelReport:
    """Outcome of one run_channel invocation."""

    profile: str
    bits_per_cs: int
    symbols_sent: int
    bits_sent: int
    symbol_errors: int
    bit_errors: int
    erasures: int
    total_cycles: int
    required_memory_bytes: int
    aborted: bool = False
    decoded: bytes = b""
    confusion: dict[tuple[int, int | None], int] = field(default_factory=dict)
    latencies: list[list[int]] | None = None

    @property
    def bandwidth_bits_per_cycle(self) -> float:
        if self.aborted or self.total_cycles == 0:
            return 0.0
        return self.bits_sent / self.total_cycles

    @property
    def bandwidth_bits_per_kcycle(self) -> float:
        return 1000.0 * self.bandwidth_bits_per_cycle

    @property
    def bandwidth_kb_per_mcycle(self) -> float:
        """Kilobytes moved per million cycles, for eyeballing curve shape."""
        return self.bandwidth_bits_per_cycle * 1e6 / 8192.0

    @property
    def symbol_error_rate(self) -> float:
        if self.symbols_sent == 0:
            return 0.0
        return self.symbol_errors / self.symbols_sent

    def to_dict(self) -> dict:
        confusion = {
            f"{sent}>{'erased' if got is None else got}": n
            for (sent, got), n in sorted(
                self.confusion.items(),
                key=lambda kv: (kv[0][0], -1 if kv[0][1] is None else kv[0][1]),
            )
        }
        out = {
            "profile": self.profile,
            "bits_per_cs": self.bits_per_cs,
            "symbols_sent": self.symbols_sent,
            "bits_sent": self.bits_sent,
            "symbol_errors": self.symbol_errors,
            "bit_errors": self.bit_errors,
            "erasures": self.erasures,
            "total_cycles": self.total_cycles,
            "bandwidth_bits_per_cycle": self.bandwidth_bits_per_cycle,
            "bandwidth_bits_per_kcycle": self.bandwidth_bits_per_kcycle,
            "bandwidth_kb_per_mcycle": self.bandwidth_kb_per_mcycle,
            "required_memory_bytes": self.required_memory_bytes,
            "aborted": self.aborted,
            "decoded_hex": self.decoded.hex(),
            "confusion": confusion,
        }
        return out


# Per width w (the symbol widths, and 8 for bytes): each w-bit value's
# MSB-first bit string, and the value of each such string.
_BITS = {
    w: [format(v, f"0{w}b") for v in range(1 << w)] for w in (*range(MIN_BITS, MAX_BITS + 1), 8)
}
_VALUE = {w: {bits: v for v, bits in enumerate(table)} for w, table in _BITS.items()}


def _regroup(values, width: int, new_width: int, count: int) -> list[int]:
    """Cut the MSB-first bit string of `width`-bit `values`, zero-padded at
    the end, into its first `count` values of `new_width` bits."""
    text = _BITS[width]
    bits = "".join([text[v] for v in values]).ljust(count * new_width, "0")
    value = _VALUE[new_width]
    return [value[bits[i : i + new_width]] for i in range(0, count * new_width, new_width)]


def pack_symbols(message: bytes, bits_per_cs: int) -> list[int]:
    """Split a byte string into b-bit symbols, MSB first, zero-padded."""
    return _regroup(message, 8, bits_per_cs, -(-8 * len(message) // bits_per_cs))


def unpack_symbols(symbols: list[int], bits_per_cs: int, byte_count: int) -> bytes:
    """Inverse of pack_symbols, truncated to the original byte count."""
    return bytes(_regroup(symbols, bits_per_cs, 8, byte_count))


def sender_inject(state: MachineState, symbol: int, depth: int) -> None:
    """Sender timeslice: push the gadget address encoding `symbol` `depth`
    times, in one bulk step however deep, then yield."""
    state.rsb.push_many(gadget_address(symbol), depth)


def _window_admits(profile: CpuProfile) -> bool:
    # The gadget is two ops, one dispatched per cycle, so its probe load
    # issues 2 cycles into the window and needs dram_latency to complete; the
    # mispredicted return resolves once its own stack load (also DRAM-deep
    # here, the sender keeps the stack line evicted) finishes plus the core's
    # extra return-resolution delay.  Hence the >= 2: a one-op gadget (a bare
    # load) would land its fill with an extra delay of 1.  Keep-in-flight
    # cores admit the fill regardless.
    if profile.squash_policy is _KEEP_INFLIGHT_FILLS:
        return True
    return profile.return_resolve_extra >= 2


def receiver_decode(
    state: MachineState,
    profile: CpuProfile,
    config: ChannelConfig,
    gadget_base: int = GADGET_BASE,
) -> tuple[int | None, list[int]]:
    """Receiver timeslice: return through the engine's own predictor,
    core.predict_return, then Flush+Reload the probe lines.

    `gadget_base` is where the receiver's copy of the gadget code lives.
    The channel only works when it matches the sender's layout; shifting it
    by a line models a context whose gadgets landed at different virtual
    addresses, in which case the predicted target executes no gadget and
    every symbol erases.

    Returns `(symbol, latencies)`: the symbol Latencies.single_hit decodes,
    or None for an erasure (not exactly one hit), and the measured reload
    latency of each probe line.  Raises PrivilegedFlushError, before it
    touches the machine, when the flush instruction is privileged on this
    profile, since the receiver runs in user mode.
    """
    if profile.mitigations.privileged_flush:
        raise PrivilegedFlushError(
            f"flush of {PROBE_BASE:#x} requires kernel privilege under this configuration"
        )
    mem = state.mem
    lines = 1 << config.bits_per_cs

    predicted = predict_return(state, profile, RECEIVER_RET_PC)
    if (
        predicted is not None
        and gadget_base <= predicted < gadget_base + lines
        and _window_admits(profile)
    ):
        mem.fill(probe_line(predicted - gadget_base))
    # The return retires architecturally to the receiver's continuation,
    # which keeps the shared BTB trained on the benign target.
    state.btb[RECEIVER_RET_PC] = RECEIVER_CONT_PC

    latencies = mem.probe_and_flush_lines(PROBE_BASE, lines, _USER)
    return mem.lat.single_hit(latencies), latencies


def run_channel(
    profile: CpuProfile,
    config: ChannelConfig = ChannelConfig(),
    message: bytes = DEFAULT_MESSAGE,
    seed: int = DEFAULT_SEED,
    gadget_base: int = GADGET_BASE,
    record_latencies: bool = False,
) -> ChannelReport:
    """Drive the full sender/receiver round-robin over `message`.

    Each symbol costs exactly config.symbol_cost(profile) cycles: two
    context switches, two cycles per sender push, and the per-line probe
    cost over the 2**b receiver lines.  With noise_probability p, an
    interloper preempts the sender-to-receiver switch with probability p,
    pushing its own return address and touching a line outside the probe
    window; the receiver then sees no hit and the symbol erases.  Only
    that switch is noise-susceptible: junk pushed on the way back to the
    sender is buried by the next injection before anything pops it.
    """
    state = make_machine(profile, seed=seed)
    state.benign_return_pc = BENIGN_RETURN_PC
    noise_rng = random.Random(seed ^ 0x5EED)

    symbols = pack_symbols(message, config.bits_per_cs)
    bits = config.bits_per_cs
    depth = config.fill_depth(profile)

    decoded: list[int] = []
    confusion: dict[tuple[int, int | None], int] = {}
    grid: list[list[int]] | None = [] if record_latencies else None
    aborted = False

    for sent in symbols:
        sender_inject(state, sent, depth)
        if config.noise_probability and noise_rng.random() < config.noise_probability:
            state.rsb.push(INTERLOPER_PC)
            state.mem.fill(INTERLOPER_LINE)
        context_switch(state, profile)
        try:
            got, latencies = receiver_decode(state, profile, config, gadget_base)
        except PrivilegedFlushError:
            aborted = True
            break
        context_switch(state, profile)

        if grid is not None:
            grid.append(latencies)
        decoded.append(0 if got is None else got)
        confusion[(sent, got)] = confusion.get((sent, got), 0) + 1

    counts = confusion.items()
    erasures = sum(n for (_, got), n in counts if got is None)
    wrong_bits = sum(n * bin(got ^ sent).count("1") for (sent, got), n in counts if got is not None)
    sent_count = len(decoded)
    return ChannelReport(
        profile=profile.name,
        bits_per_cs=bits,
        symbols_sent=sent_count,
        bits_sent=sent_count * bits,
        symbol_errors=sum(n for (sent, got), n in counts if got != sent),
        bit_errors=bits * erasures + wrong_bits,
        erasures=erasures,
        total_cycles=sent_count * config.symbol_cost(profile),
        required_memory_bytes=required_memory_bytes(bits),
        aborted=aborted,
        decoded=unpack_symbols(decoded, bits, len(message)) if not aborted else b"",
        confusion=confusion,
        latencies=grid,
    )


def sweep_bits(
    profile: CpuProfile,
    message: bytes = DEFAULT_MESSAGE,
    seed: int = DEFAULT_SEED,
    config: ChannelConfig = ChannelConfig(),
) -> list[ChannelReport]:
    """Run the channel once per symbol width b in [1, 6]; every other
    setting comes from `config`."""
    return [
        run_channel(profile, dataclasses.replace(config, bits_per_cs=bits), message, seed=seed)
        for bits in range(MIN_BITS, MAX_BITS + 1)
    ]


def latency_trace_to_csv(report: ChannelReport) -> str:
    """Per-probe latency grid (symbol index, probe line, cycles).  Each
    symbol's rows are formatted in one go, from a template per row width."""
    if report.latencies is None:
        raise ValueError("run_channel was not asked to record latencies")
    templates: dict[int, str] = {}
    blocks = ["symbol,line,latency\n"]
    for sym_idx, row in enumerate(report.latencies):
        template = templates.get(len(row))
        if template is None:
            template = templates[len(row)] = "".join(
                f"{{0}},{line_idx},{{{line_idx + 1}}}\n" for line_idx in range(len(row))
            )
        blocks.append(template.format(sym_idx, *row))
    return "".join(blocks)
