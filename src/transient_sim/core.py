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

Fetch waits for one of two things.  A HALT, FENCE or YIELD, and on an
in-order core every op, becomes the drain op: nothing younger dispatches
until it retires.  A control transfer fetched without a prediction (a return
with nothing to predict it, any branch on an in-order core) stops fetch
until it resolves and redirects it, and a HALT stops it for good.  One gate
holds both waits: dispatch_ready is the cycle of the next dispatch while
fetch runs, and _INF while fetch is stopped or a drain op is in flight.

The engine only visits cycles at which something can happen, and it finds
the work of a cycle without scanning the window (Tomasulo-style wakeup).
Each op counts its register sources whose producer has not issued yet, and
each producer keeps a list of the ops waiting on it; when the last one
issues, the op's ready cycle is known and it goes on a heap of (cycle, seq)
wakeups.  Every op with consumers or waiters completes at least a cycle
after it issues, so a wakeup always lands on a later cycle.  No key is
earlier than the cycle it is pushed in, so a cycle's issue pass pops its
ops straight off the heap, once each, in program order.  An op whose
sources are ready at dispatch gets no heap entry: it is the youngest op in
the window and the pass wakes nothing younger for its cycle, so it issues
after the heap's ops, as its key would have had it, unless the pass
squashed it.  A load held back by an older store is pushed back for the
running pass when a store address resolves, or for when the forwarded data
is ready.  A store whose address resolves issues after the pass, oldest
first, so ops ready in the same cycle issue in the order a walk of the
whole window would give.  Control resolutions wait on their own heap, and a
squash drops only the ops it squashes; heap entries of squashed ops are
skipped when they come up.  Each op's retire_at is the one gate on its
retirement: unissued ops and unresolved controls hold it at infinity.  One
op retires per cycle, so retirement stops after the op that retires in the
current one.  The run loop looks for the next cycle with work after the
pass, since a store-order replay in the pass restarts fetch; a dispatch due
the next cycle ends that search at once.

A program is decoded once, on its first run (isa.Program.decoded): each
instruction becomes a flat tuple of an int kind, its register sources and
destination, and the operand issue reads.  Every later run of it, on any
core, reuses that table.  The engine branches on the int kinds, and the
profile's policies are resolved once per run; Opcode and the profile's
Enums are compared only when text is made or a run is set up.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import deque
from dataclasses import dataclass, field

from .isa import (
    FLAGS, K_ADD, K_AND, K_BGE, K_CALL, K_CMP, K_FENCE, K_FLUSH, K_HALT, K_LD, K_MOVI,
    K_MRS, K_RDCYC, K_RET, K_SHL, K_ST, K_YIELD, Program,
)
from .memory import CycleCounter, Latencies, Level, MemorySystem, Privilege, line_of
from .profiles import (
    CpuProfile,
    ExceptionPolicy,
    PipelineKind,
    RsbUnderflow,
    SquashPolicy,
)

_INF = 1 << 62
# Enum members compared on every return or run; a module-level name is read
# faster
_RING_BUFFER = RsbUnderflow.RING_BUFFER
_SWITCH_TO_BTB = RsbUnderflow.SWITCH_TO_BTB
_IN_ORDER = PipelineKind.IN_ORDER
_KEEP_INFLIGHT_FILLS = SquashPolicy.KEEP_INFLIGHT_FILLS
_DEFERRED_FORWARD_VALUE = ExceptionPolicy.DEFERRED_FORWARD_VALUE
_USER = Privilege.USER
_L1_TEXT, _L2_TEXT, _DRAM_TEXT = Level.L1.value, Level.L2.value, Level.DRAM.value

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

    def push_many(self, addr: int, n: int) -> None:
        """Push `addr` `n` times: the same end state as `n` calls to push,
        in time bounded by the RSB size rather than by `n`."""
        size = self.size
        if n >= size:
            self.entries = [addr] * size
        else:
            entries = self.entries
            for k in range(self.top + 1, self.top + n + 1):
                entries[k % size] = addr
        self.top = (self.top + n) % size
        self.count = min(self.count + n, size)

    def pop(self, underflow: RsbUnderflow) -> int | None:
        """Pop the youngest entry.  An empty stack yields nothing, except
        under RING_BUFFER, which reads the stale slot of a long-gone push."""
        if self.count:
            self.count -= 1
        elif underflow is not _RING_BUFFER:
            return None
        value = self.entries[self.top]
        self.top = (self.top - 1) % self.size
        return value

    def flush(self) -> None:
        self.entries = [None] * self.size
        self.top = self.size - 1
        self.count = 0

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

    def predict(self, pc: int) -> bool:
        return self.counters[pc % self.SIZE] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = pc % self.SIZE
        if taken:
            self.counters[i] = min(self.counters[i] + 1, 3)
        else:
            self.counters[i] = max(self.counters[i] - 1, 0)


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
    btb: dict  # return-site pc -> last retired target, shared by every context on the core
    recovery_pc: int | None = None
    benign_return_pc: int | None = None
    rng: random.Random = field(default_factory=lambda: random.Random(DEFAULT_SEED))


def context_switch(state: MachineState, profile: CpuProfile) -> None:
    """What the core does to the return stack at a context switch: nothing,
    flush it, or refill every entry with the benign return address (a refill
    with no benign address set flushes instead)."""
    mit = profile.mitigations
    if mit.rsb_refill_on_cs and state.benign_return_pc is not None:
        state.rsb.push_many(state.benign_return_pc, state.rsb.size)
    elif mit.rsb_flush_on_cs or mit.rsb_refill_on_cs:
        state.rsb.flush()


def predict_return(state: MachineState, profile: CpuProfile, ret_site: int) -> int | None:
    """The core's prediction for the return at `ret_site`, popped from the
    RSB under the profile's underflow policy.  A SWITCH_TO_BTB core with an
    empty RSB reads the BTB instead, unless btb_fallback_disabled.  An
    in-order core still pops but predicts nothing: it stalls fetch until the
    return resolves."""
    if state.rsb.count or profile.rsb_underflow is not _SWITCH_TO_BTB:
        predicted = state.rsb.pop(profile.rsb_underflow)
    elif profile.mitigations.btb_fallback_disabled:
        predicted = None
    else:
        predicted = state.btb.get(ret_site)
    if profile.pipeline is _IN_ORDER:
        return None
    return predicted


def make_machine(profile: CpuProfile, seed: int = DEFAULT_SEED) -> MachineState:
    rng = random.Random(seed)
    counter = CycleCounter(noise_amplitude=profile.mitigations.pmu_noise_amplitude)
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
        btb={},
        rng=rng,
    )


@dataclass
class Trace:
    """What one run did.  Each event is kept as plain values, the tuple
    (cycle, kind, template, args); log_lines() and to_json() make its text,
    template.format(*args), only when they are called.

    A run records at one of two levels.  The window level, the default,
    keeps predict | squash | fill | fault: what each speculation window
    predicted, dropped and left in the cache.  The full level, run(...,
    full_trace=True), also keeps each op's fetch | execute | retire,
    interleaved with them.  Every other field is the same at both levels."""

    events: list = field(default_factory=list)
    transient_lines: set = field(default_factory=set)
    retired_seqs: set = field(default_factory=set)
    squashed_seqs: set = field(default_factory=set)
    mispredicts: int = 0
    cycles: int = 0
    halted: bool = False
    abort: str | None = None

    def log_lines(self) -> list:
        return [f"{cycle} {kind} {template.format(*args)}"
                for cycle, kind, template, args in self.events]

    def to_json(self) -> str:
        payload = {
            "cycles": self.cycles,
            "halted": self.halted,
            "abort": self.abort,
            "mispredicts": self.mispredicts,
            "transient_lines": sorted(self.transient_lines),
            "events": [
                {"cycle": cycle, "kind": kind, "detail": template.format(*args)}
                for cycle, kind, template, args in self.events
            ],
        }
        return json.dumps(payload, sort_keys=True)


class _Op:
    """One in-flight instruction.  The dispatch step of _Engine.run makes it
    with _new_op, not a call of the class, and sets every slot read before
    _issue writes it: _issue sets value and complete, actual_next and
    fill_complete."""

    __slots__ = (
        # from the decoded entry; arg is what issue reads beside the sources
        "seq", "pc", "kind", "dst", "arg", "mem_offset_src",
        "is_load", "is_store",
        "reads",      # source operands, in the order of the decoded sources
        "prev",       # the dst's producer this op renamed over, if it has a dst
        "pending",    # register sources whose producer has not issued
        "ready",      # cycle from which every register source is ready
        "consumers",  # ops counting this op among their pending sources, or None
        "waiters",    # ops to wake at this op's completion, or None
        "squashed", "issued", "value", "complete",
        "retire_at",  # cycle from which it may retire, once issued and resolved
        "mem_addr", "store_data_src", "fill_addr", "fill_complete",
        "predicted_next", "actual_next", "fault",
    )


# an empty _Op for run's dispatch step to fill in: calling a class whose
# __init__ is Python code costs about twice as much
_new_op = object.__new__


def _ready_at(src) -> int:
    """Cycle from which a source operand, a plain value or the _Op that
    produces it, can be read: at once for a value, at the producer's
    completion once it has issued, and _INF before that."""
    if src.__class__ is _Op:
        return src.complete if src.issued else _INF
    return 0


def _value(src) -> int:
    return src.value if src.__class__ is _Op else src


def _wait_on(producer: _Op, op: _Op) -> None:
    """Wake op at producer's completion."""
    if producer.waiters is None:
        producer.waiters = [op]
    else:
        producer.waiters.append(op)


class _Engine:
    def __init__(self, program: Program, state: MachineState, profile: CpuProfile,
                 max_cycles: int, full_trace: bool):
        self.program = program
        self.state = state
        self.profile = profile
        self.max_cycles = max_cycles
        self.mem = state.mem
        # the profile's and the context's facts, resolved once for the whole run
        self.keep_inflight = profile.squash_policy is _KEEP_INFLIGHT_FILLS
        self.forward_value = profile.exception_policy is _DEFERRED_FORWARD_VALUE
        self.user = state.privilege is _USER
        self.flush_faults = self.user and profile.mitigations.privileged_flush
        # what a fill gives the engine: the latency and the text of the level
        # that served it
        lat = self.mem.lat
        self.fill_outcomes = ((lat.l1_hit, _L1_TEXT), (lat.l2_hit, _L2_TEXT),
                              (lat.dram, _DRAM_TEXT))
        self.cycle = 0
        self.cycle_base = state.mem.counter.current
        self.seq = 0
        self.window = deque()  # in-flight ops, oldest first (ascending seq)
        self.stores = deque()  # the window's stores, CALL included
        self.loads = deque()   # the window's loads, RET included
        self.rename: dict = {}
        # (cycle, seq, op): try op in that cycle's pass.  Each key is a cycle
        # at which an unissued op's sources or a store's data become ready,
        # or the current cycle for a load freed by a store in the running
        # pass; an op ready at dispatch has none (see run).  No key is
        # earlier than the cycle it is pushed in, so a pass pops only keys
        # equal to its cycle, in program order.
        self.wakeups: list = []
        self.resolutions: list = []  # (resolve cycle, seq, control op)
        self.blocked: dict = {}  # seq -> load held back by an older store
        self.late_stores: list = []  # stores whose address resolved in this pass
        self.fetch_pc = state.pc
        self.fetch_active = True
        self.dispatch_ready = 0
        self.drain = None  # the op whose retirement dispatch waits for
        self.halted = False
        self.abort = None
        self.trace = Trace()
        self.record = self.trace.events.append  # takes (cycle, kind, template, args)
        self.full_trace = full_trace  # also record each op's fetch, execute and retire
        self.decoded = program.decoded  # pc -> isa._decode(instruction)

    # -- helpers -------------------------------------------------------------

    def _redirect(self, target: int, cycle: int) -> None:
        self.fetch_pc = target
        self.fetch_active = True
        self.dispatch_ready = cycle + 1
        self.drain = None

    def _squash_younger(self, resolver_seq: int, cycle: int, reason: str, pc: int) -> None:
        window = self.window
        doomed = []
        while window and window[-1].seq > resolver_seq:
            doomed.append(window.pop())
        if not doomed:
            return
        while self.stores and self.stores[-1].seq > resolver_seq:
            self.stores.pop()
        while self.loads and self.loads[-1].seq > resolver_seq:
            self.loads.pop()
        oldest_live = window[0].seq if window else self.seq
        keep_inflight = self.keep_inflight
        persisted = []
        for op in doomed:  # youngest first: each restores the name it renamed
            op.squashed = True
            self.blocked.pop(op.seq, None)
            if op.dst is not None and self.rename.get(op.dst) is op:
                prev = op.prev
                if prev is not None and prev.seq >= oldest_live:
                    self.rename[op.dst] = prev
                else:
                    del self.rename[op.dst]
            self.trace.squashed_seqs.add(op.seq)
            if op.fill_addr is not None:
                if op.fill_complete <= cycle or keep_inflight:
                    persisted.append(line_of(op.fill_addr))
                    self.trace.transient_lines.add(line_of(op.fill_addr))
                else:
                    self.mem.invalidate_line(op.fill_addr)
        self.record((
            cycle, "squash", "{} @{}: dropped {} ops, persisted transient lines {}",
            (reason, pc, len(doomed), sorted(persisted)),
        ))

    # -- issue ---------------------------------------------------------------

    def _load_hazard(self, op: _Op, addr: int) -> tuple:
        """(ready, forward) for a load of addr: not ready while an older
        store's address is unknown (unless the core speculates past it) or the
        youngest older store to addr has no data yet; forward is that store,
        or None when the load reads memory."""
        forward = None
        for store in self.stores:
            if store.seq >= op.seq:
                break
            if store.mem_addr is None:
                if self.profile.stl_speculation:
                    continue
                return False, None  # conservative: wait for the address
            if store.mem_addr == addr:
                forward = store  # youngest older alias wins; keep scanning
        if forward is not None and _ready_at(forward.store_data_src) > self.cycle:
            return False, forward  # alias known, data not yet available
        return True, forward

    def _hold(self, op: _Op, forward) -> None:
        """Park a load its hazard holds back until an older store's address
        resolves or, when it waits on forward's data, until that is ready."""
        self.blocked[op.seq] = op
        if forward is not None:
            data = forward.store_data_src
            if data.issued:  # it completes after this cycle
                heapq.heappush(self.wakeups, (data.complete, op.seq, op))
            else:
                _wait_on(data, op)

    def _issue(self, op: _Op) -> None:
        """Issue op at the current cycle if it can go, and wake the ops
        waiting on it.  An op with consumers or waiters has a destination, so
        its latency is at least 1 and every wakeup goes on the heap.  A store
        whose address resolves stays unissued until the pass is over."""
        cycle = self.cycle
        if op.pending or op.ready > cycle:
            return  # woken early, for its data; its sources will wake it
        kind = op.kind
        latency = 1
        retire_at = None  # complete, unless a fault or a resolution holds it
        filled = None     # the level a load's fill came from, as text
        if kind <= K_CMP:  # ADD, SHL, AND, CMP
            reads = op.reads
            a = reads[0]
            if a.__class__ is _Op:
                a = a.value
            b = reads[-1] if op.arg is None else op.arg
            if b.__class__ is _Op:
                b = b.value
            if kind == K_ADD:
                op.value = a + b
            elif kind == K_SHL:
                op.value = a << (b & 63)
            elif kind == K_AND:
                op.value = a & b
            else:  # CMP: the sign of a - b
                op.value = (a > b) - (a < b)
        elif kind == K_ST:
            if op.mem_addr is None:
                base = op.reads[0]
                if base.__class__ is _Op:
                    base = base.value
                op.mem_addr = base + op.mem_offset_src
                self._store_address_known(op)
                if _ready_at(op.store_data_src) <= cycle:
                    self.late_stores.append(op)
                return
            if _ready_at(op.store_data_src) > cycle:
                return  # its data's producer wakes it
        elif kind == K_MOVI:
            op.value = op.arg
        elif kind == K_LD:
            if self.blocked:
                self.blocked.pop(op.seq, None)  # _hold parks it again if need be
            addr = op.reads[0]
            if addr.__class__ is _Op:
                addr = addr.value
            addr += op.mem_offset_src
            forward = None
            if self.stores and self.stores[0].seq < op.seq:  # an older store
                ready, forward = self._load_hazard(op, addr)
                if not ready:
                    self._hold(op, forward)
                    return
            op.mem_addr = addr
            mem = self.mem
            if forward is not None:
                op.value = _value(forward.store_data_src)
                latency = mem.lat.l1_hit
            else:
                entry = mem.pages.entry(addr)
                if not entry.mapped and not (entry.privileged and self.user):
                    # demand paging: the fault resolves by mapping the page
                    mem.pages.set_mapped(addr, True)
                    mem.fill(addr)
                    op.fill_addr = addr
                    op.value = mem.cells.get(addr, 0)
                    self.record((cycle, "fault", "demand-page @{:#x}", (addr,)))
                    latency = mem.lat.page_fault
                    op.fill_complete = cycle + latency
                elif entry.privileged and self.user:
                    # exception deferred to retirement; dependents see a forwarded value
                    op.value = mem.cells.get(addr, 0) if self.forward_value else 0
                    op.fault = "privilege"
                    latency = mem.latency_for(mem.probe_level(addr))
                    retire_at = cycle + mem.lat.page_fault
                else:
                    latency, filled = mem.fill(addr, self.fill_outcomes)
                    op.fill_addr = addr
                    op.value = mem.cells.get(addr, 0)
                    op.fill_complete = cycle + latency
        elif kind == K_FLUSH:
            op.mem_addr = _value(op.reads[0]) + op.mem_offset_src
            if self.flush_faults:
                op.fault = "privileged-flush"
                retire_at = cycle + self.mem.lat.page_fault
        elif kind == K_RDCYC:
            counter = self.mem.counter
            saved = counter.current
            counter.current = self.cycle_base + cycle
            op.value = counter.read(self.state.rng)
            counter.current = saved
        elif kind == K_MRS:
            sysregs = self.state.sysregs
            if self.user:
                op.value = sysregs.get(op.arg, 0) if self.profile.sysreg_transient_forward else 0
                op.fault = "sysreg"
                retire_at = cycle + self.mem.lat.page_fault
            else:
                op.value = sysregs.get(op.arg, 0)
        elif kind == K_BGE:
            flags = op.reads[0]
            taken = (flags.value if flags.__class__ is _Op else flags) >= 0
            op.actual_next = op.arg if taken else op.pc + 1
            op.value = 1 if taken else 0
            latency = self.profile.branch_resolve_extra
            retire_at = _INF  # until it resolves
            heapq.heappush(self.resolutions, (cycle + latency, op.seq, op))
        elif kind == K_CALL:
            old = _value(op.reads[0])
            op.value = old - 8
            op.mem_addr = old - 8
            self._store_address_known(op)
        elif kind == K_RET:
            self.blocked.pop(op.seq, None)
            addr = _value(op.reads[0])
            ready, forward = self._load_hazard(op, addr)
            if not ready:
                self._hold(op, forward)
                return
            op.mem_addr = addr
            op.value = addr + 8
            mem = self.mem
            entry = forward is None and mem.pages.entry(addr)  # False when forwarded
            if entry and (not entry.mapped or (entry.privileged and self.user)):
                # raised when the return retires, so a return on a wrong path
                # is squashed with it; it has no target to resolve to
                op.fault = "privilege" if entry.mapped else "page"
                retire_at = cycle + mem.lat.page_fault
            else:
                if forward is not None:
                    op.actual_next = _value(forward.store_data_src)
                    latency = mem.lat.l1_hit
                else:
                    latency = mem.fill(addr, self.fill_outcomes)[0]
                    op.fill_addr = addr
                    op.fill_complete = cycle + latency
                    op.actual_next = mem.cells.get(addr, 0)
                latency += self.profile.return_resolve_extra
                retire_at = _INF  # until it resolves
                heapq.heappush(self.resolutions, (cycle + latency, op.seq, op))
        # NOP, FENCE, YIELD and HALT only issue

        op.issued = True
        op.complete = complete = cycle + latency
        op.retire_at = complete if retire_at is None else retire_at
        if self.full_trace:
            self.record((cycle, "execute", "#{} @{} {}", (op.seq, op.pc, self.decoded[op.pc][9])))
        if op.consumers is not None:
            for consumer in op.consumers:
                if consumer.squashed:
                    continue
                if complete > consumer.ready:
                    consumer.ready = complete
                consumer.pending -= 1
                if not consumer.pending:
                    heapq.heappush(self.wakeups, (consumer.ready, consumer.seq, consumer))
            op.consumers = None
        if op.waiters is not None:
            for waiter in op.waiters:
                if not waiter.squashed:
                    heapq.heappush(self.wakeups, (complete, waiter.seq, waiter))
            op.waiters = None
        if filled is not None:
            self.record((cycle, "fill", "@{:#x} from {}", (op.mem_addr, filled)))

    def _store_address_known(self, store: _Op) -> None:
        """A store's address just resolved.  Younger loads that already read
        the same cell were mis-speculated and must re-execute; loads held
        back by older stores may now go."""
        addr = store.mem_addr
        oldest = None
        for load in reversed(self.loads):
            if load.seq <= store.seq:
                break
            if load.issued and load.mem_addr == addr:
                oldest = load
        if oldest is not None:
            self.trace.mispredicts += 1
            # replay from the oldest violating load: ops between it and the
            # store read nothing the store wrote and stay in the window
            self._squash_younger(oldest.seq - 1, self.cycle, "store-order violation", store.pc)
            self._redirect(oldest.pc, self.cycle)
        if self.blocked:  # younger than the store: ahead in this pass
            for seq in [seq for seq in self.blocked if seq > store.seq]:
                heapq.heappush(self.wakeups, (self.cycle, seq, self.blocked.pop(seq)))

    # -- resolution ----------------------------------------------------------

    def _resolve_controls(self) -> None:
        pending = self.resolutions
        due = []
        while pending and pending[0][0] <= self.cycle:
            due.append(heapq.heappop(pending)[1:])
        due.sort()  # the oldest due control first
        for _, op in due:
            if op.squashed:
                continue
            op.retire_at = op.complete
            if op.predicted_next is None:
                # fetch was stalled on this control: late redirect, no squash
                self._redirect(op.actual_next, op.complete)
            elif op.predicted_next != op.actual_next:
                self.trace.mispredicts += 1
                self._squash_younger(op.seq, op.complete, "mispredict", op.pc)
                self._redirect(op.actual_next, op.complete)

    # -- retirement ----------------------------------------------------------

    def _raise(self, op: _Op, when: int) -> None:
        """Retire a faulting op: it writes nothing, and everything younger is
        squashed before fetch goes to the recovery point, if there is one."""
        if op.dst is not None and self.rename.get(op.dst) is op:
            del self.rename[op.dst]  # the register keeps its old value
        self.record((when, "fault", "#{} @{} {} (retired)", (op.seq, op.pc, op.fault)))
        self._squash_younger(op.seq, when, "fault", op.pc)
        if self.state.recovery_pc is not None:
            self._redirect(self.state.recovery_pc, when)
        else:
            self.abort = f"unhandled {op.fault} fault at pc {op.pc}"
            self.fetch_active = False
            self.dispatch_ready = _INF

    # -- main loop -----------------------------------------------------------

    def run(self) -> Trace:
        """Visit each cycle at which something can happen: a control
        resolving, the oldest op retiring, a dispatch, or an op woken to
        issue.  Squashed and finished heap entries are dropped from the top
        as they are met.  Each cycle retires every oldest op that can go by
        it, one per cycle, up to the one that retires in it: each writes its
        register, and its store, predictor update, flush, switch or halt;
        _raise retires a faulting op.  Then at most one op dispatches: the
        op at fetch_pc is registered with the producers it waits on, and is
        woken once, at its ready cycle, when the last of its register
        sources has issued; a store is also woken when its data becomes
        ready.  An op whose sources are ready in its dispatch cycle gets no
        wakeup: it is issued at the end of that cycle's pass."""
        window, wakeups, resolutions = self.window, self.wakeups, self.resolutions
        heappop, heappush, max_cycles = heapq.heappop, heapq.heappush, self.max_cycles
        popleft, stores, loads = window.popleft, self.stores, self.loads
        rename, state, mem, full_trace = self.rename, self.state, self.mem, self.full_trace
        profile, decoded, record = self.profile, self.decoded, self.record
        end, in_order = len(self.program), profile.pipeline is _IN_ORDER
        retired = self.trace.retired_seqs.add
        last_retire = -1  # the cycle of the latest retirement
        cycle = 0
        while True:
            self.cycle = cycle
            if cycle > max_cycles:
                self.abort = f"cycle limit {max_cycles} exceeded"
                break
            if resolutions and resolutions[0][0] <= cycle:
                self._resolve_controls()
            if window and window[0].retire_at <= cycle:
                done = False  # whether a retirement ends the run
                while window:
                    op = window[0]
                    when = op.retire_at
                    if when <= last_retire:
                        when = last_retire + 1
                    if when > cycle:
                        break
                    last_retire = when
                    popleft()
                    if op.is_store:
                        stores.popleft()
                    if op.is_load:
                        loads.popleft()
                    op.reads = op.prev = None  # keep no chain of retired ops alive
                    retired(op.seq)
                    if op.fault:
                        self._raise(op, when)  # which squashes everything younger
                        done = self.abort is not None
                        break
                    if op is self.drain:  # a HALT leaves the gate shut: fetch is stopped
                        self.drain = None
                        if self.fetch_active:
                            self.dispatch_ready = when + 1
                    kind, dst = op.kind, op.dst
                    if full_trace:
                        record((when, "retire", "#{} @{} {}",
                                (op.seq, op.pc, decoded[op.pc][9])))
                    if dst is not None:
                        if dst == FLAGS:
                            state.flags = op.value
                        else:
                            state.regs[dst] = op.value
                        if rename.get(dst) is op:
                            del rename[dst]
                    if kind <= K_LD:
                        pass  # ALU, MOVI and LD: the register write is all
                    elif op.is_store:
                        data = op.store_data_src
                        mem.cells[op.mem_addr] = data.value if data.__class__ is _Op else data
                        mem.fill(op.mem_addr)
                    elif kind == K_BGE:
                        state.pht.update(op.pc, op.value == 1)
                    elif kind == K_RET:
                        state.btb[op.pc] = op.actual_next
                    elif kind == K_FLUSH:
                        mem.invalidate_line(op.mem_addr)
                    elif kind == K_YIELD:
                        context_switch(state, profile)
                        if op.pc + 1 >= end:  # a trailing yield ends the context's turn
                            self.halted = done = True
                            state.pc = op.pc
                            break
                    elif kind == K_HALT:
                        self.halted = done = True
                        state.pc = op.pc
                        break
                    if when == cycle:
                        break  # one op retires per cycle
                if done:
                    break
            fresh = None  # the op just dispatched, when it is ready at once
            if self.dispatch_ready <= cycle:  # _INF while fetch waits
                pc = self.fetch_pc
                if pc >= end or pc < 0:
                    # fetch stalls: a wrong path is redirected when its
                    # control resolves, and an architectural run-off drains
                    # the window and ends the run without HALT
                    self.fetch_active = False
                    self.dispatch_ready = _INF
                else:
                    seq = self.seq
                    kind, dst, srcs, data, offset, is_load, is_store, is_control, arg, _ = (
                        decoded[pc])
                    op = _new_op(_Op)
                    op.seq = seq
                    op.pc = pc
                    op.kind = kind
                    op.dst = dst
                    op.arg = arg
                    op.mem_offset_src = offset
                    op.is_load = is_load
                    op.is_store = is_store
                    op.reads = reads = []
                    op.consumers = op.waiters = None  # until the first one comes
                    op.squashed = op.issued = False
                    op.retire_at = _INF
                    op.mem_addr = op.fill_addr = op.fault = None
                    self.seq = seq + 1

                    next_pc = pc + 1
                    pending, ready = 0, cycle
                    for reg in srcs:
                        src = rename.get(reg)
                        if src is None:
                            reads.append(state.flags if reg == FLAGS else state.regs[reg])
                            continue
                        reads.append(src)
                        if not src.issued:
                            if src.consumers is None:
                                src.consumers = [op]
                            else:
                                src.consumers.append(op)
                            pending += 1
                        elif src.complete > ready:
                            ready = src.complete
                    op.pending = pending
                    op.ready = ready
                    if not pending and ready > cycle:
                        heappush(wakeups, (ready, seq, op))
                    if data is not None:
                        src = rename.get(data)
                        if src is None:
                            op.store_data_src = state.regs[data]
                        else:
                            op.store_data_src = src
                            if not src.issued:
                                _wait_on(src, op)
                            elif src.complete > cycle:
                                heappush(wakeups, (src.complete, seq, op))
                    if is_control:
                        if kind == K_CALL:
                            op.store_data_src = pc + 1
                            state.rsb.push(pc + 1)  # speculative push, survives squash
                            next_pc = arg
                            op.predicted_next = next_pc  # static target, cannot mispredict
                        elif kind == K_RET:
                            predicted = predict_return(state, profile, pc)
                            op.predicted_next = predicted
                            if predicted is not None:
                                record((cycle, "predict", "ret@{} -> {}", (pc, predicted)))
                                next_pc = predicted
                            else:
                                self.fetch_active = False  # until the return resolves
                        elif in_order:  # BGE
                            op.predicted_next = None
                            self.fetch_active = False  # until the branch resolves
                        else:
                            taken = state.pht.predict(pc)
                            op.predicted_next = next_pc = arg if taken else pc + 1
                            record((
                                cycle, "predict", "bge@{} {} -> {}",
                                (pc, "taken" if taken else "not-taken", next_pc),
                            ))

                    if dst is not None:
                        op.prev = rename.get(dst)
                        rename[dst] = op
                    window.append(op)
                    if is_store:
                        stores.append(op)
                    if is_load:
                        loads.append(op)
                    if full_trace:
                        record((cycle, "fetch", "#{} @{} {}",
                                (seq, pc, self.program.instructions[pc])))

                    self.fetch_pc = next_pc  # a redirect overwrites it while fetch is stopped
                    if kind >= K_YIELD or in_order:
                        # nothing younger dispatches until a HALT, FENCE or
                        # YIELD retires; on an in-order core that holds for
                        # every op, so a deferred fault can never
                        # shadow-execute its dependents
                        if kind == K_HALT:
                            self.fetch_active = False
                        self.drain = op
                        self.dispatch_ready = _INF
                    else:
                        self.dispatch_ready = cycle + 1 if self.fetch_active else _INF
                    if not pending and ready <= cycle:
                        fresh = op
            if fresh is not None or (wakeups and wakeups[0][0] <= cycle):
                # the issue pass: try every op woken for this cycle once, in
                # program order, then issue the stores whose address resolved
                # in it, oldest first.  The fresh op is the youngest in the
                # window and the pass wakes nothing younger for this cycle,
                # so it goes last, unless the pass squashed it.
                last = None
                while wakeups and wakeups[0][0] <= cycle:
                    _, seq, op = heappop(wakeups)
                    if seq != last and not op.issued and not op.squashed:
                        last = seq
                        self._issue(op)
                if fresh is not None and not fresh.squashed:
                    self._issue(fresh)
                if self.late_stores:
                    # a squash in the pass drops only ops younger than the
                    # one issuing, so none of these is squashed, and _issue
                    # finds each one's address known and its data ready
                    for op in self.late_stores:
                        self._issue(op)
                    self.late_stores = []
            # the next cycle with work, looked for after the pass, since a
            # replay in it redirects fetch.  A dispatch due next cycle comes
            # first: no key can be earlier, and stale heap tops are dropped
            # when they are next met.
            nxt = self.dispatch_ready
            if nxt == cycle + 1:
                cycle = nxt
                continue
            while wakeups and (wakeups[0][2].issued or wakeups[0][2].squashed):
                heappop(wakeups)
            if wakeups and cycle < wakeups[0][0] < nxt:
                nxt = wakeups[0][0]
            while resolutions and resolutions[0][2].squashed:
                heappop(resolutions)
            if resolutions and resolutions[0][0] < nxt:
                nxt = resolutions[0][0]
            # the oldest op retires at its retire_at, or at last_retire + 1
            # when that is later: the next cycle at most, visited anyway
            if window and window[0].retire_at < nxt:
                nxt = window[0].retire_at
            if nxt >= _INF:
                if not window and not self.fetch_active:
                    self.abort = "program ended without HALT"
                    break
                nxt = cycle + 1
            cycle = nxt if nxt > cycle else cycle + 1
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
    *,
    full_trace: bool = False,
) -> Trace:
    """Execute a program on the given machine. Deterministic for fixed inputs.

    The machine state is updated in place: registers, flags, memory, and the
    predictor structures all persist, which is what lets one experiment train
    structures for the next run.  full_trace records each op's fetch, execute
    and retire events as well (see Trace); it changes nothing else.
    """
    engine = _Engine(program, state, profile, max_cycles, full_trace)
    return engine.run()
