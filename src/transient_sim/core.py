"""Core model: branch structures, machine state, and the speculative pipeline.

The execution model is an event-stepped issue/complete scheme rather than a
full reorder-buffer simulation: instructions dispatch one per cycle along the
predicted path, issue as soon as their operands are ready, complete after
their latency, and retire in order.  Control transfers resolve at operand
completion plus a per-profile resolve-extra constant; a misprediction squashes
everything younger.  Cache fills that completed before the squash always
survive it; fills still in flight survive only under keep-inflight-fills.
On in-order profiles nothing is fetched past an unresolved control transfer
and each instruction completes before the next dispatches, so no transient
instruction ever executes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .isa import Instruction, Opcode, Program, Mem, Reg, Imm, LabelRef, SysReg
from .memory import (
    CycleCounter,
    Latencies,
    MemorySystem,
    PageFault,
    Privilege,
    PrivilegeFault,
    line_of,
)
from .profiles import (
    CpuProfile,
    ExceptionPolicy,
    PipelineKind,
    RsbUnderflow,
    SquashPolicy,
)

FLAGS = 16  # pseudo-register written by CMP, read by BGE
_INF = 1 << 62

DEFAULT_SEED = 7


class Rsb:
    """Fixed-size return address stack.

    Pushes at capacity overwrite the oldest entry.  Pushes happen at dispatch
    time and are never rolled back on a squash; that asymmetry is what the
    return-based attacks lean on.
    """

    def __init__(self, size: int):
        self.size = size
        self.entries: list = [None] * size
        self.top = size - 1
        self.count = 0

    def push(self, addr: int) -> None:
        self.top = (self.top + 1) % self.size
        self.entries[self.top] = addr
        self.count = min(self.count + 1, self.size)

    def pop(
        self,
        underflow: RsbUnderflow,
        btb: "Btb | None" = None,
        ret_site: int | None = None,
        btb_fallback_disabled: bool = False,
    ) -> int | None:
        if self.count > 0:
            value = self.entries[self.top]
            self.top = (self.top - 1) % self.size
            self.count -= 1
            return value
        if underflow is RsbUnderflow.STOP_PREDICTING:
            return None
        if underflow is RsbUnderflow.RING_BUFFER:
            value = self.entries[self.top]  # stale slot from a long-gone push
            self.top = (self.top - 1) % self.size
            return value
        if underflow is RsbUnderflow.SWITCH_TO_BTB:
            if btb_fallback_disabled or btb is None or ret_site is None:
                return None
            return btb.lookup(ret_site)
        raise AssertionError(underflow)

    def flush(self) -> None:
        self.entries = [None] * self.size
        self.top = self.size - 1
        self.count = 0

    def refill(self, addr: int) -> None:
        self.entries = [addr] * self.size
        self.top = self.size - 1
        self.count = self.size

    def snapshot(self) -> list:
        """Entries youngest-first, for inspection in tests."""
        out = []
        for k in range(self.count):
            out.append(self.entries[(self.top - k) % self.size])
        return out


class Pht:
    """Pattern history table of 2-bit saturating counters, indexed by PC low bits."""

    SIZE = 64

    def __init__(self):
        self.counters = [0] * self.SIZE  # 0 = strong not-taken

    def _index(self, pc: int) -> int:
        return pc % self.SIZE

    def predict(self, pc: int) -> bool:
        return self.counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = self._index(pc)
        if taken:
            self.counters[i] = min(self.counters[i] + 1, 3)
        else:
            self.counters[i] = max(self.counters[i] - 1, 0)


class Btb:
    """Branch target buffer: return-site PC -> last retired target.

    Lives in core state, so it is shared by every context that runs on the
    same simulated core.
    """

    def __init__(self):
        self.entries: dict = {}

    def lookup(self, pc: int) -> int | None:
        return self.entries.get(pc)

    def update(self, pc: int, target: int) -> None:
        self.entries[pc] = target


@dataclass
class MachineState:
    regs: list
    flags: int
    pc: int
    privilege: Privilege
    sysregs: dict
    mem: MemorySystem
    rsb: Rsb
    pht: Pht
    btb: Btb
    recovery_pc: int | None = None
    benign_return_pc: int | None = None
    rng: random.Random = field(default_factory=lambda: random.Random(DEFAULT_SEED))


def context_switch(state: MachineState, profile: CpuProfile) -> None:
    """What the core does to the return stack at a context switch: nothing,
    flush it, or refill every entry with the benign return address (a refill
    with no benign address set flushes instead)."""
    mit = profile.mitigations
    if mit.rsb_refill_on_cs and state.benign_return_pc is not None:
        state.rsb.refill(state.benign_return_pc)
    elif mit.rsb_flush_on_cs or mit.rsb_refill_on_cs:
        state.rsb.flush()


def make_machine(profile: CpuProfile, seed: int = DEFAULT_SEED) -> MachineState:
    rng = random.Random(seed)
    counter = CycleCounter(
        resolution=1, noise_amplitude=profile.mitigations.pmu_noise_amplitude
    )
    mem = MemorySystem(
        l1=profile.l1,
        l2=profile.l2,
        latencies=Latencies(**vars(profile.latencies)),
        counter=counter,
        rng=rng,
    )
    return MachineState(
        regs=[0] * 16,
        flags=0,
        pc=0,
        privilege=Privilege.KERNEL,
        sysregs={},
        mem=mem,
        rsb=Rsb(profile.rsb_size),
        pht=Pht(),
        btb=Btb(),
        rng=rng,
    )


@dataclass
class TraceEvent:
    cycle: int
    kind: str  # fetch | execute | retire | squash | fill | fault | predict
    detail: str


@dataclass
class Trace:
    events: list = field(default_factory=list)
    transient_lines: set = field(default_factory=set)
    retired_seqs: set = field(default_factory=set)
    squashed_seqs: set = field(default_factory=set)
    mispredicts: int = 0
    cycles: int = 0
    halted: bool = False
    abort: str | None = None

    def add(self, cycle: int, kind: str, detail: str) -> None:
        self.events.append(TraceEvent(cycle, kind, detail))

    def log_lines(self) -> list:
        return [f"{e.cycle} {e.kind} {e.detail}" for e in self.events]

    def to_json(self) -> str:
        payload = {
            "cycles": self.cycles,
            "halted": self.halted,
            "abort": self.abort,
            "mispredicts": self.mispredicts,
            "transient_lines": sorted(self.transient_lines),
            "events": [
                {"cycle": e.cycle, "kind": e.kind, "detail": e.detail}
                for e in self.events
            ],
        }
        return json.dumps(payload, sort_keys=True)


class _Op:
    __slots__ = (
        "seq", "pc", "instr", "dispatch",
        "reads", "dst", "value",
        "issued", "issue_cycle", "complete",
        "is_load", "is_store", "is_control",
        "mem_addr", "mem_offset_src", "store_data_src", "store_value",
        "addr_ready", "bypassed", "forwarded",
        "fill_addr", "fill_complete",
        "predicted_next", "actual_next", "resolve_cycle", "resolved",
        "fault", "fault_ready",
    )

    def __init__(self, seq: int, pc: int, instr: Instruction, dispatch: int):
        self.seq = seq
        self.pc = pc
        self.instr = instr
        self.dispatch = dispatch
        self.reads = {}           # reg index -> ("val", int) | ("op", _Op)
        self.dst = None
        self.value = None
        self.issued = False
        self.issue_cycle = None
        self.complete = None
        self.is_load = False
        self.is_store = False
        self.is_control = False
        self.mem_addr = None
        self.mem_offset_src = 0
        self.store_data_src = None  # ("val", v) | ("op", op)
        self.store_value = None
        self.addr_ready = None
        self.bypassed = False
        self.forwarded = False
        self.fill_addr = None
        self.fill_complete = None
        self.predicted_next = None
        self.actual_next = None
        self.resolve_cycle = None
        self.resolved = False
        self.fault = None
        self.fault_ready = None

    def src_ready(self, cycle: int) -> bool:
        for src in self.reads.values():
            kind, ref = src
            if kind == "op" and (not ref.issued or ref.complete > cycle):
                return False
        return True

    def src_bound(self) -> int | None:
        """Lower bound on the cycle all register sources are ready, or None."""
        bound = self.dispatch
        for kind, ref in self.reads.values():
            if kind == "op":
                if not ref.issued:
                    return None
                bound = max(bound, ref.complete)
        return bound

    def src_value(self, reg: int) -> int:
        kind, ref = self.reads[reg]
        return ref if kind == "val" else ref.value


def _sign(delta: int) -> int:
    return (delta > 0) - (delta < 0)


class _Engine:
    def __init__(self, program: Program, state: MachineState, profile: CpuProfile,
                 max_cycles: int):
        self.program = program
        self.state = state
        self.profile = profile
        self.max_cycles = max_cycles
        self.mem = state.mem
        self.in_order = profile.pipeline is PipelineKind.IN_ORDER
        self.cycle = 0
        self.cycle_base = state.mem.counter.current
        self.seq = 0
        self.window: list = []
        self.rename: dict = {}
        self.fetch_pc = state.pc
        self.fetch_active = True
        self.dispatch_ready = 0
        self.blockers: list = []  # ("retire"|"complete"|"resolve", _Op)
        self.last_retire = -1
        self.halted = False
        self.abort = None
        self.trace = Trace()

    # -- helpers -------------------------------------------------------------

    def _read_src(self, reg: int):
        producer = self.rename.get(reg)
        if producer is not None:
            return ("op", producer)
        if reg == FLAGS:
            return ("val", self.state.flags)
        return ("val", self.state.regs[reg])

    def _redirect(self, target: int, cycle: int) -> None:
        self.fetch_pc = target
        self.fetch_active = True
        self.dispatch_ready = cycle + 1
        self.blockers = []

    def _squash_younger(self, resolver_seq: int, cycle: int, reason: str) -> None:
        keep_inflight = self.profile.squash_policy is SquashPolicy.KEEP_INFLIGHT_FILLS
        doomed = [op for op in self.window if op.seq > resolver_seq]
        if not doomed:
            return
        persisted = []
        for op in doomed:
            self.trace.squashed_seqs.add(op.seq)
            if op.fill_addr is not None:
                if op.fill_complete <= cycle or keep_inflight:
                    persisted.append(op.fill_addr)
                    self.trace.transient_lines.add(line_of(op.fill_addr))
                else:
                    self.mem.invalidate_line(op.fill_addr)
        self.window = [op for op in self.window if op.seq <= resolver_seq]
        self.rename = {}
        for op in self.window:
            if op.dst is not None:
                self.rename[op.dst] = op
        self.blockers = [b for b in self.blockers if b[1].seq <= resolver_seq]
        lines = sorted(line_of(a) for a in persisted)
        self.trace.add(
            cycle,
            "squash",
            f"{reason}: dropped {len(doomed)} ops, persisted transient lines {lines}",
        )

    # -- dispatch ------------------------------------------------------------

    def _dispatch_blocked(self) -> bool:
        for kind, op in self.blockers:
            if kind == "retire":
                return True  # cleared explicitly at retirement
            if kind == "resolve" and not op.resolved:
                return True
        return False

    def _dispatch(self) -> None:
        state, profile = self.state, self.profile
        if self.fetch_pc >= len(self.program) or self.fetch_pc < 0:
            self.abort = f"fetch ran past program end (pc={self.fetch_pc})"
            self.fetch_active = False
            return
        pc = self.fetch_pc
        instr = self.program.instructions[pc]
        op = _Op(self.seq, pc, instr, self.cycle)
        self.seq += 1
        opc = instr.opcode
        ops = instr.operands

        next_pc = pc + 1
        if opc in (Opcode.ADD, Opcode.SHL, Opcode.AND):
            op.dst = ops[0].index
            op.reads[ops[1].index] = self._read_src(ops[1].index)
            if isinstance(ops[2], Reg):
                op.reads.setdefault(ops[2].index, self._read_src(ops[2].index))
        elif opc is Opcode.MOVI:
            op.dst = ops[0].index
        elif opc is Opcode.CMP:
            op.dst = FLAGS
            op.reads[ops[0].index] = self._read_src(ops[0].index)
            if isinstance(ops[1], Reg):
                op.reads.setdefault(ops[1].index, self._read_src(ops[1].index))
        elif opc is Opcode.LD:
            op.dst = ops[0].index
            op.is_load = True
            op.reads[ops[1].base] = self._read_src(ops[1].base)
            op.mem_offset_src = ops[1].offset
        elif opc is Opcode.ST:
            op.is_store = True
            op.reads[ops[0].base] = self._read_src(ops[0].base)
            op.mem_offset_src = ops[0].offset
            op.store_data_src = self._read_src(ops[1].index)
        elif opc is Opcode.FLUSH:
            op.reads[ops[0].base] = self._read_src(ops[0].base)
            op.mem_offset_src = ops[0].offset
        elif opc is Opcode.RDCYC:
            op.dst = ops[0].index
        elif opc is Opcode.MRS:
            op.dst = ops[0].index
        elif opc is Opcode.BGE:
            op.is_control = True
            op.reads[FLAGS] = self._read_src(FLAGS)
        elif opc is Opcode.CALL:
            op.is_control = True
            op.is_store = True  # pushes the return address onto the software stack
            op.dst = 15
            op.reads[15] = self._read_src(15)
            op.store_data_src = ("val", pc + 1)
            state.rsb.push(pc + 1)  # speculative push, survives squash
            next_pc = ops[0].target
            op.predicted_next = next_pc
            op.resolved = True  # static target, cannot mispredict
        elif opc is Opcode.RET:
            op.is_control = True
            op.is_load = True  # fetches the return address from the software stack
            op.dst = 15
            op.reads[15] = self._read_src(15)
            predicted = state.rsb.pop(
                profile.rsb_underflow,
                btb=state.btb,
                ret_site=pc,
                btb_fallback_disabled=profile.mitigations.btb_fallback_disabled,
            )
            if self.in_order:
                predicted = None
            op.predicted_next = predicted
            if predicted is not None:
                self.trace.add(self.cycle, "predict", f"ret@{pc} -> {predicted}")
                next_pc = predicted
            else:
                self.fetch_active = False
                self.blockers.append(("resolve", op))

        if opc is Opcode.BGE:
            taken_target = ops[0].target
            if self.in_order:
                op.predicted_next = None
                self.fetch_active = False
                self.blockers.append(("resolve", op))
            else:
                taken = state.pht.predict(pc)
                op.predicted_next = taken_target if taken else pc + 1
                next_pc = op.predicted_next
                self.trace.add(
                    self.cycle, "predict",
                    f"bge@{pc} {'taken' if taken else 'not-taken'} -> {next_pc}",
                )

        if op.dst is not None:
            self.rename[op.dst] = op
        self.window.append(op)
        self.trace.add(self.cycle, "fetch", f"#{op.seq} @{pc} {instr}")

        if opc is Opcode.HALT:
            self.fetch_active = False
        elif opc in (Opcode.FENCE, Opcode.YIELD):
            self.blockers.append(("retire", op))
        if self.fetch_active:
            self.fetch_pc = next_pc
        self.dispatch_ready = self.cycle + 1
        if self.in_order:
            # precise pipeline: nothing younger dispatches until this retires,
            # so a deferred fault can never shadow-execute its dependents
            self.blockers.append(("retire", op))

    # -- issue ---------------------------------------------------------------

    def _older_stores(self, op: _Op) -> list:
        return [o for o in self.window if o.is_store and o.seq < op.seq]

    def _load_hazard(self, op: _Op) -> tuple:
        """Returns (ready: bool, forward: _Op | None, bypassed: bool)."""
        addr = op.mem_addr
        forward = None
        bypassed = False
        for store in self._older_stores(op):
            if store.mem_addr is None:
                if self.profile.stl_speculation:
                    bypassed = True
                    continue
                return False, None, False  # conservative: wait for the address
            if store.mem_addr == addr:
                forward = store  # youngest older alias wins; keep scanning
        if forward is not None:
            kind, ref = forward.store_data_src
            if kind == "op" and (not ref.issued or ref.complete > self.cycle):
                return False, None, False  # alias known, data not yet available
        return True, forward, bypassed

    def _issue_load(self, op: _Op) -> bool:
        base = next(iter(op.reads))
        op.mem_addr = op.src_value(base) + op.mem_offset_src
        ready, forward, bypassed = self._load_hazard(op)
        if not ready:
            op.mem_addr = None
            return False
        op.bypassed = bypassed
        lat = self.mem.lat
        if forward is not None:
            op.forwarded = True
            kind, ref = forward.store_data_src
            op.value = ref if kind == "val" else ref.value
            return self._finish_issue(op, lat.l1_hit)

        addr = op.mem_addr
        entry = self.mem.pages.entry(addr)
        if not entry.mapped and not (
            entry.privileged and self.state.privilege is Privilege.USER
        ):
            # demand paging: the fault resolves by mapping the page
            self.mem.pages.set_mapped(addr, True)
            self.mem.fill(addr)
            op.fill_addr = addr
            op.value = self.mem.cells.get(addr, 0)
            self.trace.add(self.cycle, "fault", f"demand-page @{addr:#x}")
            done = self._finish_issue(op, lat.page_fault)
            op.fill_complete = op.complete
            return done
        if entry.privileged and self.state.privilege is Privilege.USER:
            # exception deferred to retirement; dependents see a forwarded value
            level = self.mem.probe_level(addr)
            if self.profile.exception_policy is ExceptionPolicy.DEFERRED_FORWARD_VALUE:
                op.value = self.mem.cells.get(addr, 0)
            else:
                op.value = 0
            op.fault = "privilege"
            done = self._finish_issue(op, self.mem.latency_for(level))
            op.fault_ready = op.issue_cycle + lat.page_fault
            return done

        level = self.mem.fill(addr)
        latency = self.mem.latency_for(level)
        op.fill_addr = addr
        op.value = self.mem.cells.get(addr, 0)
        done = self._finish_issue(op, latency)
        op.fill_complete = op.complete
        self.trace.add(self.cycle, "fill", f"@{addr:#x} from {level.value}")
        return done

    def _finish_issue(self, op: _Op, latency: int) -> bool:
        op.issued = True
        op.issue_cycle = self.cycle
        op.complete = self.cycle + latency
        self.trace.add(self.cycle, "execute", f"#{op.seq} @{op.pc} {op.instr.opcode.value}")
        return True

    def _issue(self, op: _Op) -> bool:
        """Try to issue op at the current cycle. Returns True on progress."""
        state, profile = self.state, self.profile
        opc = op.instr.opcode
        ops = op.instr.operands
        lat = self.mem.lat

        if op.is_store and not op.is_control:  # ST
            if op.mem_addr is None:
                base = next(iter(op.reads))
                src = op.reads[base]
                if src[0] == "op" and (not src[1].issued or src[1].complete > self.cycle):
                    return False
                op.mem_addr = op.src_value(base) + op.mem_offset_src
                op.addr_ready = self.cycle
                self._store_violation_check(op)
                return True
            kind, ref = op.store_data_src
            if kind == "op" and (not ref.issued or ref.complete > self.cycle):
                return False
            op.store_value = ref if kind == "val" else ref.value
            return self._finish_issue(op, 1)

        if not op.src_ready(self.cycle):
            return False

        if opc is Opcode.MOVI:
            op.value = ops[1].value
            return self._finish_issue(op, 1)
        if opc in (Opcode.ADD, Opcode.SHL, Opcode.AND):
            a = op.src_value(ops[1].index)
            b = ops[2].value if isinstance(ops[2], Imm) else op.src_value(ops[2].index)
            if opc is Opcode.ADD:
                op.value = a + b
            elif opc is Opcode.SHL:
                op.value = a << (b & 63)
            else:
                op.value = a & b
            return self._finish_issue(op, 1)
        if opc is Opcode.CMP:
            a = op.src_value(ops[0].index)
            b = ops[1].value if isinstance(ops[1], Imm) else op.src_value(ops[1].index)
            op.value = _sign(a - b)
            return self._finish_issue(op, 1)
        if opc is Opcode.LD:
            return self._issue_load(op)
        if opc is Opcode.FLUSH:
            base = next(iter(op.reads))
            op.mem_addr = op.src_value(base) + op.mem_offset_src
            if (
                profile.mitigations.privileged_flush
                and state.privilege is Privilege.USER
            ):
                op.fault = "privileged-flush"
                done = self._finish_issue(op, 1)
                op.fault_ready = op.issue_cycle + lat.page_fault
                return done
            return self._finish_issue(op, 1)
        if opc is Opcode.RDCYC:
            counter = self.mem.counter
            saved = counter.current
            counter.current = self.cycle_base + self.cycle
            op.value = counter.read(self.state.rng)
            counter.current = saved
            return self._finish_issue(op, 1)
        if opc is Opcode.MRS:
            idx = ops[1].index
            if state.privilege is Privilege.USER:
                op.value = state.sysregs.get(idx, 0) if profile.sysreg_transient_forward else 0
                op.fault = "sysreg"
                done = self._finish_issue(op, 1)
                op.fault_ready = op.issue_cycle + lat.page_fault
                return done
            op.value = state.sysregs.get(idx, 0)
            return self._finish_issue(op, 1)
        if opc is Opcode.BGE:
            flags = op.src_value(FLAGS)
            taken = flags >= 0
            op.actual_next = op.instr.operands[0].target if taken else op.pc + 1
            op.value = 1 if taken else 0
            base = max(op.dispatch, self.cycle)
            op.resolve_cycle = base + profile.branch_resolve_extra
            op.issued = True
            op.issue_cycle = self.cycle
            op.complete = op.resolve_cycle
            self.trace.add(self.cycle, "execute", f"#{op.seq} @{op.pc} BGE")
            return True
        if opc is Opcode.CALL:
            old = op.src_value(15)
            op.value = old - 8
            op.mem_addr = old - 8
            op.addr_ready = self.cycle
            self._store_violation_check(op)
            op.store_value = op.pc + 1
            return self._finish_issue(op, 1)
        if opc is Opcode.RET:
            if op.mem_addr is None:
                op.mem_addr = op.src_value(15)
                ready, forward, bypassed = self._load_hazard(op)
                if not ready:
                    op.mem_addr = None
                    return False
                op.bypassed = bypassed
                if forward is not None:
                    op.forwarded = True
                    kind, ref = forward.store_data_src
                    op.actual_next = ref if kind == "val" else ref.value
                    latency = lat.l1_hit
                else:
                    addr = op.mem_addr
                    try:
                        self.mem.check_access(addr, state.privilege)
                    except (PageFault, PrivilegeFault):
                        self.abort = f"return address fetch faulted at {addr:#x}"
                        return True
                    level = self.mem.fill(addr)
                    latency = self.mem.latency_for(level)
                    op.fill_addr = addr
                    op.fill_complete = self.cycle + latency
                    op.actual_next = self.mem.cells.get(addr, 0)
                op.value = op.src_value(15) + 8
                op.issued = True
                op.issue_cycle = self.cycle
                op.resolve_cycle = self.cycle + latency + profile.return_resolve_extra
                op.complete = op.resolve_cycle
                self.trace.add(self.cycle, "execute", f"#{op.seq} @{op.pc} RET")
                return True
            return False
        # NOP, FENCE, YIELD, HALT
        op.value = None
        op.dst = None
        return self._finish_issue(op, 1)

    def _store_violation_check(self, store: _Op) -> None:
        """Called when a store's address resolves; younger loads that already
        read the same cell were mis-speculated and must re-execute."""
        violators = [
            o
            for o in self.window
            if o.is_load
            and o.seq > store.seq
            and o.issued
            and o.mem_addr == store.mem_addr
            and o.issue_cycle < self.cycle
        ]
        if not violators:
            return
        oldest = min(violators, key=lambda o: o.seq)
        self.trace.mispredicts += 1
        # replay from the oldest violating load: ops between it and the store
        # read nothing the store wrote and stay in the window
        self._squash_younger(oldest.seq - 1, self.cycle, f"store-order violation @{store.pc}")
        self._redirect(oldest.pc, self.cycle)

    # -- resolution ----------------------------------------------------------

    def _due_resolutions(self) -> list:
        return sorted(
            (
                op
                for op in self.window
                if op.is_control
                and not op.resolved
                and op.resolve_cycle is not None
                and op.resolve_cycle <= self.cycle
            ),
            key=lambda o: o.seq,
        )

    def _resolve_controls(self) -> None:
        while True:
            due = self._due_resolutions()
            if not due:
                return
            op = due[0]
            op.resolved = True
            if op.predicted_next is None:
                # fetch was stalled on this control: late redirect, no squash
                self.blockers = [b for b in self.blockers if b[1] is not op]
                self._redirect(op.actual_next, op.resolve_cycle)
                continue
            if op.predicted_next != op.actual_next:
                self.trace.mispredicts += 1
                self._squash_younger(op.seq, op.resolve_cycle, f"mispredict @{op.pc}")
                self._redirect(op.actual_next, op.resolve_cycle)

    # -- retirement ----------------------------------------------------------

    def _retire_effects(self, op: _Op, when: int) -> None:
        state, profile = self.state, self.profile
        opc = op.instr.opcode
        if op.fault:
            self.trace.add(when, "fault", f"#{op.seq} @{op.pc} {op.fault} (retired)")
            self._squash_younger(op.seq, when, f"fault @{op.pc}")
            if state.recovery_pc is not None:
                self._redirect(state.recovery_pc, when)
            else:
                self.abort = f"unhandled {op.fault} fault at pc {op.pc}"
                self.fetch_active = False
            return
        if op.is_store:
            self.mem.cells[op.mem_addr] = op.store_value
            self.mem.fill(op.mem_addr)
        if opc is Opcode.FLUSH:
            self.mem.invalidate_line(op.mem_addr)
        elif opc is Opcode.BGE:
            state.pht.update(op.pc, op.value == 1)
        elif opc is Opcode.RET:
            state.btb.update(op.pc, op.actual_next)
        elif opc is Opcode.YIELD:
            context_switch(state, profile)
            if op.pc + 1 >= len(self.program):
                # a trailing yield ends the context's turn
                self.halted = True
                state.pc = op.pc
        elif opc is Opcode.HALT:
            self.halted = True
            state.pc = op.pc
        if op.dst is not None:
            if op.dst == FLAGS:
                state.flags = op.value
            else:
                state.regs[op.dst] = op.value
            if self.rename.get(op.dst) is op:
                del self.rename[op.dst]

    def _retire(self) -> None:
        while self.window:
            op = self.window[0]
            if not op.issued:
                return
            if op.is_control and not op.resolved:
                return
            ready = op.complete
            if op.fault:
                ready = max(ready, op.fault_ready)
            when = max(ready, self.last_retire + 1)
            if when > self.cycle:
                return
            self.last_retire = when
            self.window.pop(0)
            self.trace.retired_seqs.add(op.seq)
            if not op.fault:
                self.trace.add(when, "retire", f"#{op.seq} @{op.pc} {op.instr.opcode.value}")
            self._retire_effects(op, when)
            if any(b[1] is op for b in self.blockers):
                self.blockers = [b for b in self.blockers if b[1] is not op]
                self.dispatch_ready = max(self.dispatch_ready, when + 1)
            if self.halted or self.abort:
                return

    # -- main loop -----------------------------------------------------------

    def _next_event(self) -> int:
        best = _INF
        if self.fetch_active:
            t = self.dispatch_ready
            known = True
            for kind, op in self.blockers:
                if kind == "retire":
                    known = False
                elif kind == "resolve":
                    if op.resolve_cycle is not None:
                        t = max(t, op.resolve_cycle + 1)
                    else:
                        known = False
            if known:
                best = min(best, t)
        for op in self.window:
            if not op.issued:
                bound = op.src_bound()
                if bound is not None and bound > self.cycle:
                    best = min(best, bound)
                if op.store_data_src is not None and op.store_data_src[0] == "op":
                    ref = op.store_data_src[1]
                    if ref.issued and ref.complete > self.cycle:
                        best = min(best, ref.complete)
            elif op.is_control and not op.resolved and op.resolve_cycle is not None:
                best = min(best, op.resolve_cycle)
        if self.window:
            op = self.window[0]
            if op.issued and not (op.is_control and not op.resolved):
                ready = op.complete
                if op.fault:
                    ready = max(ready, op.fault_ready)
                best = min(best, max(ready, self.last_retire + 1))
        return best

    def run(self) -> Trace:
        while True:
            if self.cycle > self.max_cycles:
                self.abort = f"cycle limit {self.max_cycles} exceeded"
                break
            self._resolve_controls()
            self._retire()
            if self.halted or self.abort:
                break
            if (
                self.fetch_active
                and self.dispatch_ready <= self.cycle
                and not self._dispatch_blocked()
            ):
                self._dispatch()
            progressed = True
            while progressed:
                progressed = False
                for op in list(self.window):
                    if not op.issued:
                        before = (op.issued, op.mem_addr)
                        if self._issue(op):
                            progressed = True
                        elif (op.issued, op.mem_addr) != before:
                            progressed = True
                        if self.abort:
                            break
                if self.abort:
                    break
            if self.abort:
                break
            nxt = self._next_event()
            if nxt >= _INF:
                if not self.window and not self.fetch_active:
                    if not self.halted:
                        self.abort = "program ended without HALT"
                    break
                self.cycle += 1
                if self.cycle > self.max_cycles:
                    self.abort = f"cycle limit {self.max_cycles} exceeded"
                    break
                continue
            self.cycle = max(nxt, self.cycle + 1)
        self.trace.cycles = self.cycle
        self.trace.halted = self.halted
        self.trace.abort = self.abort
        self.mem.counter.advance(self.cycle)
        return self.trace


def run(
    program: Program,
    state: MachineState,
    profile: CpuProfile,
    max_cycles: int = 200_000,
) -> Trace:
    """Execute a program on the given machine. Deterministic for fixed inputs.

    The machine state is updated in place: registers, flags, memory, and the
    predictor structures all persist, which is what lets one experiment train
    structures for the next run.
    """
    engine = _Engine(program, state, profile, max_cycles)
    return engine.run()
