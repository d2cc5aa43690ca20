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

Fetch waits for one of two things.  A FENCE or YIELD, and on an in-order
core every op, becomes the drain op: nothing younger dispatches until it
retires.  A control transfer fetched without a prediction (a return with
nothing to predict it, any branch on an in-order core) stops fetch until it
resolves and redirects it.

The engine only visits cycles at which something can happen, and it finds
the work of a cycle without scanning the window (Tomasulo-style wakeup).
Each op counts its register sources whose producer has not issued yet, and
each producer keeps a list of the ops waiting on it; when the last one
issues, the op's ready cycle is known and it goes on a heap of
(cycle, seq) wakeups.  A cycle's issue pass tries the ops woken for it in
program order.  An op woken behind the cursor, such as a store once its
address has resolved, is tried in a further pass over the same cycle, so
ops ready in the same cycle issue in the order a walk of the whole window
would give.  A load held back by an older store is woken when a store
address resolves or when the forwarded data is ready.  Control resolutions
wait on their own heap, and a squash drops only the ops it squashes; heap
entries of squashed ops are skipped when they come up.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import deque
from dataclasses import dataclass, field

from .isa import Imm, Instruction, Opcode, Program, Reg
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
# read a register and then a register or an immediate, the last two operands
_ARITH = (Opcode.ADD, Opcode.SHL, Opcode.AND, Opcode.CMP)

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
        elif underflow is not RsbUnderflow.RING_BUFFER:
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
    if state.rsb.count or profile.rsb_underflow is not RsbUnderflow.SWITCH_TO_BTB:
        predicted = state.rsb.pop(profile.rsb_underflow)
    elif profile.mitigations.btb_fallback_disabled:
        predicted = None
    else:
        predicted = state.btb.get(ret_site)
    if profile.pipeline is PipelineKind.IN_ORDER:
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
    __slots__ = (
        "seq", "pc", "instr", "name",
        "reads", "dst", "value", "prev",
        "pending", "ready", "consumers", "waiters", "squashed",
        "issued", "issue_cycle", "complete",
        "is_load", "is_store", "is_control",
        "mem_addr", "mem_offset_src", "store_data_src",
        "fill_addr", "fill_complete",
        "predicted_next", "actual_next", "resolved",
        "fault",
    )

    def __init__(self, seq: int, pc: int, instr: Instruction, dispatch: int):
        self.seq = seq
        self.pc = pc
        self.instr = instr
        self.name = None          # the opcode's text, for trace events
        self.reads = {}           # reg index -> source operand
        self.dst = None
        self.value = None
        self.prev = None          # the dst's producer this op renamed over
        self.pending = 0          # register sources whose producer has not issued
        self.ready = dispatch     # cycle from which every register source is ready
        self.consumers = []       # ops counting this op among their pending sources
        self.waiters = []         # ops to wake at this op's completion
        self.squashed = False
        self.issued = False
        self.issue_cycle = None
        self.complete = None
        self.is_load = False
        self.is_store = False
        self.is_control = False
        self.mem_addr = None
        self.mem_offset_src = 0
        self.store_data_src = None  # source operand of the stored value
        self.fill_addr = None
        self.fill_complete = None
        self.predicted_next = None
        self.actual_next = None
        self.resolved = False
        self.fault = None


def _ready_at(src) -> int:
    """Cycle from which a source operand, a plain value or the _Op that
    produces it, can be read: at once for a value, at the producer's
    completion once it has issued, and _INF before that."""
    if isinstance(src, _Op):
        return src.complete if src.issued else _INF
    return 0


def _value(src) -> int:
    return src.value if isinstance(src, _Op) else src


def _decode(instr: Instruction) -> tuple:
    """What dispatch needs of an instruction: (dst, source registers, stored
    register, memory offset, is_load, is_store, is_control)."""
    opc, ops = instr.opcode, instr.operands
    if opc in _ARITH:
        srcs = (ops[-2].index,) + ((ops[-1].index,) if isinstance(ops[-1], Reg) else ())
        dst = FLAGS if opc is Opcode.CMP else ops[0].index
        return dst, tuple(dict.fromkeys(srcs)), None, 0, False, False, False
    if opc in (Opcode.MOVI, Opcode.RDCYC, Opcode.MRS):
        return ops[0].index, (), None, 0, False, False, False
    if opc is Opcode.LD:
        return ops[0].index, (ops[1].base,), None, ops[1].offset, True, False, False
    if opc is Opcode.ST:
        return None, (ops[0].base,), ops[1].index, ops[0].offset, False, True, False
    if opc is Opcode.FLUSH:
        return None, (ops[0].base,), None, ops[0].offset, False, False, False
    if opc is Opcode.BGE:
        return None, (FLAGS,), None, 0, False, False, True
    if opc is Opcode.CALL:  # pushes the return address onto the software stack
        return 15, (15,), None, 0, False, True, True
    if opc is Opcode.RET:  # fetches the return address from the software stack
        return 15, (15,), None, 0, True, False, True
    return None, (), None, 0, False, False, False


class _Engine:
    def __init__(self, program: Program, state: MachineState, profile: CpuProfile,
                 max_cycles: int, full_trace: bool):
        self.program = program
        self.state = state
        self.profile = profile
        self.max_cycles = max_cycles
        self.mem = state.mem
        self.in_order = profile.pipeline is PipelineKind.IN_ORDER
        self.cycle = 0
        self.cycle_base = state.mem.counter.current
        self.seq = 0
        self.window = deque()  # in-flight ops, oldest first (ascending seq)
        self.stores = deque()  # the window's stores, CALL included
        self.loads = deque()   # the window's loads, RET included
        self.rename: dict = {}
        # (cycle, seq, op): try op from that cycle on.  Each key is a cycle at
        # which an unissued op's sources or a store's data become ready.
        self.wakeups: list = []
        self.resolutions: list = []  # (resolve cycle, seq, control op)
        self.blocked: dict = {}  # seq -> load held back by an older store
        self.cursor = None  # seq of the op the issue pass is trying
        self.this_pass: list = []  # (seq, op) still to try in this pass
        self.next_pass: list = []  # (seq, op) woken behind the cursor
        self.fetch_pc = state.pc
        self.fetch_active = True
        self.dispatch_ready = 0
        self.drain = None  # the op whose retirement dispatch waits for
        self.last_retire = -1
        self.halted = False
        self.abort = None
        self.trace = Trace()
        self.record = self.trace.events.append  # takes (cycle, kind, template, args)
        self.full_trace = full_trace  # also record each op's fetch, execute and retire
        self.end = len(program)
        self.decoded: list = [None] * self.end  # pc -> _decode(instr) + (opcode text,)

    # -- helpers -------------------------------------------------------------

    def _redirect(self, target: int, cycle: int) -> None:
        self.fetch_pc = target
        self.fetch_active = True
        self.dispatch_ready = cycle + 1
        self.drain = None

    def _wake(self, op: _Op, cycle: int) -> None:
        """Try op again from cycle on.  Inside an issue pass, an op woken for
        this cycle joins the pass if it lies ahead of the cursor and the next
        pass if not, as when every pass walked the whole window."""
        if self.cursor is None or cycle > self.cycle:
            heapq.heappush(self.wakeups, (cycle, op.seq, op))
        elif op.seq > self.cursor:
            heapq.heappush(self.this_pass, (op.seq, op))
        else:
            self.next_pass.append((op.seq, op))

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
        keep_inflight = self.profile.squash_policy is SquashPolicy.KEEP_INFLIGHT_FILLS
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

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self) -> None:
        """Fetch the op at fetch_pc and register it with the producers it
        waits on.  It is woken once, at its ready cycle, when the last of its
        register sources has issued; a store is also woken when its data
        becomes ready."""
        pc = self.fetch_pc
        if pc >= self.end or pc < 0:
            # fetch stalls: a wrong path is redirected when its control
            # resolves, and an architectural run-off drains the window and
            # ends the run without HALT
            self.fetch_active = False
            return
        state, profile = self.state, self.profile
        cycle, seq, rename = self.cycle, self.seq, self.rename
        instr = self.program.instructions[pc]
        op = _Op(seq, pc, instr, cycle)
        self.seq = seq + 1
        opc = instr.opcode
        ops = instr.operands

        next_pc = pc + 1
        decoded = self.decoded[pc]
        if decoded is None:
            decoded = self.decoded[pc] = _decode(instr) + (opc.value,)
        (op.dst, srcs, data, op.mem_offset_src, op.is_load, op.is_store, op.is_control,
         op.name) = decoded
        # at dispatch no issue pass is running, so a wakeup goes on the heap
        reads = op.reads
        for reg in srcs:
            src = rename.get(reg)
            if src is None:
                reads[reg] = state.flags if reg == FLAGS else state.regs[reg]
                continue
            reads[reg] = src
            if not src.issued:
                src.consumers.append(op)
                op.pending += 1
            elif src.complete > op.ready:
                op.ready = src.complete
        if not op.pending:
            heapq.heappush(self.wakeups, (op.ready, seq, op))
        if data is not None:
            src = rename.get(data)
            if src is None:
                op.store_data_src = state.regs[data]
            else:
                op.store_data_src = src
                if not src.issued:
                    src.waiters.append(op)
                elif src.complete > cycle:
                    heapq.heappush(self.wakeups, (src.complete, seq, op))
        if op.is_control:
            if opc is Opcode.CALL:
                op.store_data_src = pc + 1
                state.rsb.push(pc + 1)  # speculative push, survives squash
                next_pc = ops[0].target
                op.predicted_next = next_pc
                op.resolved = True  # static target, cannot mispredict
            elif opc is Opcode.RET:
                predicted = predict_return(state, profile, pc)
                op.predicted_next = predicted
                if predicted is not None:
                    self.record((cycle, "predict", "ret@{} -> {}", (pc, predicted)))
                    next_pc = predicted
                else:
                    self.fetch_active = False  # until the return resolves
            elif self.in_order:  # BGE
                op.predicted_next = None
                self.fetch_active = False  # until the branch resolves
            else:
                taken = state.pht.predict(pc)
                op.predicted_next = next_pc = ops[0].target if taken else pc + 1
                self.record((
                    cycle, "predict", "bge@{} {} -> {}",
                    (pc, "taken" if taken else "not-taken", next_pc),
                ))

        if op.dst is not None:
            op.prev = rename.get(op.dst)
            rename[op.dst] = op
        self.window.append(op)
        if op.is_store:
            self.stores.append(op)
        if op.is_load:
            self.loads.append(op)
        if self.full_trace:
            self.record((cycle, "fetch", "#{} @{} {}", (seq, pc, instr)))

        if opc is Opcode.HALT:
            self.fetch_active = False
        if self.in_order or opc is Opcode.FENCE or opc is Opcode.YIELD:
            # nothing younger dispatches until this retires; on an in-order
            # core that holds for every op, so a deferred fault can never
            # shadow-execute its dependents
            self.drain = op
        if self.fetch_active:
            self.fetch_pc = next_pc
        self.dispatch_ready = cycle + 1

    # -- issue ---------------------------------------------------------------

    def _issue_ready(self) -> None:
        """Try, in program order, every op woken for this cycle.  An op woken
        behind the cursor is tried in a further pass over the same cycle, as
        a store is once its address resolves."""
        wakeups, cycle = self.wakeups, self.cycle
        due = []
        while wakeups and wakeups[0][0] <= cycle:
            _, seq, op = heapq.heappop(wakeups)
            due.append((seq, op))
        while due:
            heapq.heapify(due)
            self.this_pass, self.next_pass = due, []
            last = None
            while due:
                seq, op = heapq.heappop(due)
                if seq == last or op.issued or op.squashed:
                    continue  # woken twice, or done with
                last = self.cursor = seq
                self._issue(op)
            due = self.next_pass
        self.cursor = None

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
            if data.issued:
                self._wake(op, data.complete)
            else:
                data.waiters.append(op)

    def _issue_load(self, op: _Op) -> None:
        addr = _value(op.reads[op.instr.operands[1].base]) + op.mem_offset_src
        ready, forward = self._load_hazard(op, addr)
        if not ready:
            self._hold(op, forward)
            return
        op.mem_addr = addr
        lat = self.mem.lat
        if forward is not None:
            op.value = _value(forward.store_data_src)
            self._finish_issue(op, lat.l1_hit)
            return

        entry = self.mem.pages.entry(addr)
        if not entry.mapped and not (
            entry.privileged and self.state.privilege is Privilege.USER
        ):
            # demand paging: the fault resolves by mapping the page
            self.mem.pages.set_mapped(addr, True)
            self.mem.fill(addr)
            op.fill_addr = addr
            op.value = self.mem.cells.get(addr, 0)
            self.record((self.cycle, "fault", "demand-page @{:#x}", (addr,)))
            self._finish_issue(op, lat.page_fault)
            op.fill_complete = op.complete
            return
        if entry.privileged and self.state.privilege is Privilege.USER:
            # exception deferred to retirement; dependents see a forwarded value
            level = self.mem.probe_level(addr)
            if self.profile.exception_policy is ExceptionPolicy.DEFERRED_FORWARD_VALUE:
                op.value = self.mem.cells.get(addr, 0)
            else:
                op.value = 0
            self._issue_faulting(op, "privilege", self.mem.latency_for(level))
            return

        level = self.mem.fill(addr)
        latency = self.mem.latency_for(level)
        op.fill_addr = addr
        op.value = self.mem.cells.get(addr, 0)
        self._finish_issue(op, latency)
        op.fill_complete = op.complete
        self.record((self.cycle, "fill", "@{:#x} from {}", (addr, level.value)))

    def _finish_issue(self, op: _Op, latency: int) -> None:
        cycle = self.cycle
        op.issued = True
        op.issue_cycle = cycle
        op.complete = complete = cycle + latency
        if self.full_trace:
            self.record((cycle, "execute", "#{} @{} {}", (op.seq, op.pc, op.name)))
        for consumer in op.consumers:
            if consumer.squashed:
                continue
            if complete > consumer.ready:
                consumer.ready = complete
            consumer.pending -= 1
            if not consumer.pending:
                if consumer.ready > cycle:  # after this cycle: straight to the heap
                    heapq.heappush(self.wakeups, (consumer.ready, consumer.seq, consumer))
                else:
                    self._wake(consumer, consumer.ready)
        for waiter in op.waiters:
            if not waiter.squashed:
                self._wake(waiter, complete)
        op.consumers = op.waiters = None

    def _issue_faulting(self, op: _Op, fault: str, latency: int) -> None:
        """Issue op with an exception that is raised when it retires."""
        op.fault = fault
        self._finish_issue(op, latency)

    def _issue(self, op: _Op) -> None:
        """Issue op at the current cycle if it can go.  A store whose address
        resolves stays unissued and is tried again in the next pass."""
        if op.pending or op.ready > self.cycle:
            return  # woken early, for its data; its sources will wake it
        opc = op.instr.opcode
        ops = op.instr.operands
        if opc in _ARITH:
            reads = op.reads
            a = reads[ops[-2].index]
            if a.__class__ is _Op:
                a = a.value
            b = ops[-1]
            b = b.value if b.__class__ is Imm else reads[b.index]
            if b.__class__ is _Op:
                b = b.value
            if opc is Opcode.ADD:
                op.value = a + b
            elif opc is Opcode.SHL:
                op.value = a << (b & 63)
            elif opc is Opcode.AND:
                op.value = a & b
            else:  # CMP: the sign of a - b
                op.value = (a > b) - (a < b)
            self._finish_issue(op, 1)
            return
        if op.is_load:
            self.blocked.pop(op.seq, None)  # _hold parks it again if need be
        state, profile = self.state, self.profile

        if opc is Opcode.ST:
            if op.mem_addr is None:
                op.mem_addr = _value(op.reads[ops[0].base]) + op.mem_offset_src
                self._store_address_known(op)
                if _ready_at(op.store_data_src) <= self.cycle:
                    self._wake(op, self.cycle)
                return
            if _ready_at(op.store_data_src) > self.cycle:
                return  # its data's producer wakes it
            self._finish_issue(op, 1)
        elif opc is Opcode.MOVI:
            op.value = ops[1].value
            self._finish_issue(op, 1)
        elif opc is Opcode.LD:
            self._issue_load(op)
        elif opc is Opcode.FLUSH:
            op.mem_addr = _value(op.reads[ops[0].base]) + op.mem_offset_src
            if (
                profile.mitigations.privileged_flush
                and state.privilege is Privilege.USER
            ):
                self._issue_faulting(op, "privileged-flush", 1)
            else:
                self._finish_issue(op, 1)
        elif opc is Opcode.RDCYC:
            counter = self.mem.counter
            saved = counter.current
            counter.current = self.cycle_base + self.cycle
            op.value = counter.read(self.state.rng)
            counter.current = saved
            self._finish_issue(op, 1)
        elif opc is Opcode.MRS:
            idx = ops[1].index
            if state.privilege is Privilege.USER:
                op.value = state.sysregs.get(idx, 0) if profile.sysreg_transient_forward else 0
                self._issue_faulting(op, "sysreg", 1)
            else:
                op.value = state.sysregs.get(idx, 0)
                self._finish_issue(op, 1)
        elif opc is Opcode.BGE:
            taken = _value(op.reads[FLAGS]) >= 0
            op.actual_next = ops[0].target if taken else op.pc + 1
            op.value = 1 if taken else 0
            self._finish_issue(op, profile.branch_resolve_extra)
            heapq.heappush(self.resolutions, (op.complete, op.seq, op))
        elif opc is Opcode.CALL:
            old = _value(op.reads[15])
            op.value = old - 8
            op.mem_addr = old - 8
            self._store_address_known(op)
            self._finish_issue(op, 1)
        elif opc is Opcode.RET:
            addr = _value(op.reads[15])
            ready, forward = self._load_hazard(op, addr)
            if not ready:
                self._hold(op, forward)
                return
            op.mem_addr = addr
            op.value = addr + 8
            if forward is not None:
                op.actual_next = _value(forward.store_data_src)
                latency = self.mem.lat.l1_hit
            else:
                try:
                    self.mem.check_access(addr, state.privilege)
                except (PageFault, PrivilegeFault) as exc:
                    # raised when the return retires, so a return on a wrong
                    # path is squashed with it; it has no target to resolve to
                    op.resolved = True
                    self._issue_faulting(op, "page" if isinstance(exc, PageFault) else "privilege", 1)
                    return
                level = self.mem.fill(addr)
                latency = self.mem.latency_for(level)
                op.fill_addr = addr
                op.fill_complete = self.cycle + latency
                op.actual_next = self.mem.cells.get(addr, 0)
            self._finish_issue(op, latency + profile.return_resolve_extra)
            heapq.heappush(self.resolutions, (op.complete, op.seq, op))
        else:  # NOP, FENCE, YIELD, HALT
            self._finish_issue(op, 1)

    def _store_address_known(self, store: _Op) -> None:
        """A store's address just resolved.  Younger loads that already read
        the same cell were mis-speculated and must re-execute; loads held
        back by older stores may now go."""
        addr = store.mem_addr
        oldest = None
        for load in reversed(self.loads):
            if load.seq <= store.seq:
                break
            if load.issued and load.mem_addr == addr and load.issue_cycle < self.cycle:
                oldest = load
        if oldest is not None:
            self.trace.mispredicts += 1
            # replay from the oldest violating load: ops between it and the
            # store read nothing the store wrote and stay in the window
            self._squash_younger(oldest.seq - 1, self.cycle, "store-order violation", store.pc)
            self._redirect(oldest.pc, self.cycle)
        if self.blocked:
            for seq in [seq for seq in self.blocked if seq > store.seq]:
                self._wake(self.blocked.pop(seq), self.cycle)

    # -- resolution ----------------------------------------------------------

    def _resolve_controls(self) -> None:
        pending = self.resolutions
        due = []
        while pending and pending[0][0] <= self.cycle:
            due.append(heapq.heappop(pending)[2])
        due.sort(key=lambda op: op.seq)  # the oldest due control first
        for op in due:
            if op.squashed:
                continue
            op.resolved = True
            if op.predicted_next is None:
                # fetch was stalled on this control: late redirect, no squash
                self._redirect(op.actual_next, op.complete)
            elif op.predicted_next != op.actual_next:
                self.trace.mispredicts += 1
                self._squash_younger(op.seq, op.complete, "mispredict", op.pc)
                self._redirect(op.actual_next, op.complete)

    # -- retirement ----------------------------------------------------------

    def _retire_effects(self, op: _Op, when: int) -> None:
        """Everything retiring op does but write its register: raise its
        fault, write its store, train a predictor, flush, switch or halt."""
        state, profile = self.state, self.profile
        opc = op.instr.opcode
        if op.fault:
            if op.dst is not None and self.rename.get(op.dst) is op:
                del self.rename[op.dst]  # the register keeps its old value
            self.record((when, "fault", "#{} @{} {} (retired)", (op.seq, op.pc, op.fault)))
            self._squash_younger(op.seq, when, "fault", op.pc)
            if state.recovery_pc is not None:
                self._redirect(state.recovery_pc, when)
            else:
                self.abort = f"unhandled {op.fault} fault at pc {op.pc}"
                self.fetch_active = False
            return
        if op.is_store:
            self.mem.cells[op.mem_addr] = _value(op.store_data_src)
            self.mem.fill(op.mem_addr)
        if opc is Opcode.FLUSH:
            self.mem.invalidate_line(op.mem_addr)
        elif opc is Opcode.BGE:
            state.pht.update(op.pc, op.value == 1)
        elif opc is Opcode.RET:
            state.btb[op.pc] = op.actual_next
        elif opc is Opcode.YIELD:
            context_switch(state, profile)
            if op.pc + 1 >= self.end:
                # a trailing yield ends the context's turn
                self.halted = True
                state.pc = op.pc
        elif opc is Opcode.HALT:
            self.halted = True
            state.pc = op.pc

    def _retire(self) -> None:
        """Retire the oldest ops that can go by this cycle.  Their registers
        are written here; _retire_effects does the rest, for the ops that do
        more."""
        window, cycle, rename = self.window, self.cycle, self.rename
        retired, full_trace = self.trace.retired_seqs, self.full_trace
        while window:
            op = window[0]
            if not op.issued or (op.is_control and not op.resolved):
                return
            when = op.complete
            if op.fault:  # raised a page fault's latency after issue
                when = max(when, op.issue_cycle + self.mem.lat.page_fault)
            if when <= self.last_retire:
                when = self.last_retire + 1
            if when > cycle:
                return
            self.last_retire = when
            window.popleft()
            if op.is_store:
                self.stores.popleft()
            if op.is_load:
                self.loads.popleft()
            op.reads = op.prev = None  # keep no chain of retired ops alive
            retired.add(op.seq)
            if op.fault:
                self._retire_effects(op, when)
            else:
                if full_trace:
                    self.record((when, "retire", "#{} @{} {}", (op.seq, op.pc, op.name)))
                dst = op.dst
                if dst is None or op.is_store or op.is_control:
                    self._retire_effects(op, when)
                if dst is not None:
                    if dst == FLAGS:
                        self.state.flags = op.value
                    else:
                        self.state.regs[dst] = op.value
                    if rename.get(dst) is op:
                        del rename[dst]
            if op is self.drain:
                self.drain = None
                self.dispatch_ready = max(self.dispatch_ready, when + 1)
            if self.halted or self.abort:
                return

    # -- main loop -----------------------------------------------------------

    def _next_event(self) -> int:
        """The next cycle at which something can happen: dispatch, an op's
        sources or a store's data becoming ready, a control resolving, or the
        oldest op retiring.  Squashed and finished heap entries are dropped
        from the top as they are met."""
        best = _INF
        if self.fetch_active and self.drain is None:
            best = self.dispatch_ready
        wakeups = self.wakeups
        while wakeups and (wakeups[0][2].issued or wakeups[0][2].squashed):
            heapq.heappop(wakeups)
        if wakeups and self.cycle < wakeups[0][0] < best:
            best = wakeups[0][0]
        pending = self.resolutions
        while pending and pending[0][2].squashed:
            heapq.heappop(pending)
        if pending and pending[0][0] < best:
            best = pending[0][0]
        if self.window:  # when the oldest op can retire, as _retire works it out
            op = self.window[0]
            if op.issued and not (op.is_control and not op.resolved):
                when = op.complete
                if op.fault:  # raised a page fault's latency after issue
                    when = max(when, op.issue_cycle + self.mem.lat.page_fault)
                if when <= self.last_retire:
                    when = self.last_retire + 1
                if when < best:
                    best = when
        return best

    def run(self) -> Trace:
        window, wakeups, resolutions = self.window, self.wakeups, self.resolutions
        while True:
            cycle = self.cycle
            if cycle > self.max_cycles:
                self.abort = f"cycle limit {self.max_cycles} exceeded"
                break
            if resolutions and resolutions[0][0] <= cycle:
                self._resolve_controls()
            if window and window[0].issued:
                self._retire()
                if self.halted or self.abort:
                    break
            if self.fetch_active and self.drain is None and self.dispatch_ready <= cycle:
                self._dispatch()
            if wakeups and wakeups[0][0] <= cycle:
                self._issue_ready()
            nxt = self._next_event()
            if nxt >= _INF:
                if not window and not self.fetch_active:
                    self.abort = "program ended without HALT"
                    break
                nxt = cycle + 1
            self.cycle = max(nxt, cycle + 1)
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
