"""Two-level data cache with strict LRU, a flat page table, and a noisy cycle counter.

Data memory is a mapping from address to integer value (one cell per address);
the caches track 64-byte lines over those addresses.  Physical and virtual
addresses coincide.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from itertools import repeat

LINE_SIZE = 64
PAGE_SIZE = 4096

# Region used by sweep_evict, far away from anything experiments allocate.
SWEEP_BASE = 0x100_0000


class Privilege(Enum):
    USER = "user"
    KERNEL = "kernel"


# Enum members compared on every check; a module-level name is read faster
_USER = Privilege.USER


class MemoryFault(Exception):
    """Base class for access faults; carries the faulting address."""

    def __init__(self, addr: int, message: str):
        self.addr = addr
        super().__init__(message)


class PageFault(MemoryFault):
    def __init__(self, addr: int):
        super().__init__(addr, f"page fault at {addr:#x} (unmapped page)")


class PrivilegeFault(MemoryFault):
    def __init__(self, addr: int):
        super().__init__(addr, f"privilege fault at {addr:#x} (privileged page, user access)")


def line_of(addr: int) -> int:
    return addr // LINE_SIZE


def page_of(addr: int) -> int:
    return addr // PAGE_SIZE


@dataclass(frozen=True)
class CacheGeometry:
    sets: int
    ways: int

    def __post_init__(self):
        for name, v in (("sets", self.sets), ("ways", self.ways)):
            if v < 1 or v & (v - 1):
                raise ValueError(f"cache {name} must be a power of two, got {v}")

    @property
    def capacity_bytes(self) -> int:
        return self.sets * self.ways * LINE_SIZE

    @property
    def span_bytes(self) -> int:
        """Distance between addresses that share a set."""
        return self.sets * LINE_SIZE


class CacheLevel:
    """One set-associative level: per set, a list of line numbers, oldest
    first, so a fill appends and an eviction deletes index 0.  MemorySystem
    applies the strict-LRU policy.  nsets and ways copy the geometry's, so
    the per-access paths read each in one attribute lookup, not two."""

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self.nsets = geometry.sets
        self.ways = geometry.ways
        self._sets: list = [[] for _ in repeat(None, geometry.sets)]

    def contains(self, line: int) -> bool:
        return line in self._sets[line % self.nsets]

    def lru_view(self) -> list:
        """(set index, its lines most to least recent) for each non-empty
        set, in ascending set order."""
        return [(index, tuple(reversed(lines))) for index, lines in enumerate(self._sets) if lines]


@dataclass(frozen=True)
class PageEntry:
    mapped: bool = True
    privileged: bool = False


_DEFAULT_PAGE = PageEntry()


class PageTable:
    """Page -> attributes.  Pages without an explicit entry are mapped, unprivileged."""

    def __init__(self):
        self._entries: dict = {}

    def entry(self, addr: int) -> PageEntry:
        return self._entries.get(addr // PAGE_SIZE, _DEFAULT_PAGE)  # page_of inline: per load

    def set_mapped(self, addr: int, mapped: bool) -> None:
        page = page_of(addr)
        self._entries[page] = replace(self._entries.get(page, _DEFAULT_PAGE), mapped=mapped)

    def set_privileged(self, addr: int, privileged: bool) -> None:
        page = page_of(addr)
        self._entries[page] = replace(
            self._entries.get(page, _DEFAULT_PAGE), privileged=privileged
        )


@dataclass
class Latencies:
    l1_hit: int = 4
    l2_hit: int = 12
    dram: int = 200
    page_fault: int = 1000

    def __post_init__(self):
        if not (1 <= self.l1_hit < self.l2_hit < self.dram < self.page_fault):
            raise ValueError(
                "latencies must satisfy 1 <= l1 < l2 < dram < page_fault, got "
                f"{self.l1_hit}/{self.l2_hit}/{self.dram}/{self.page_fault}"
            )

    @property
    def hit_threshold(self) -> int:
        """Flush+Reload's hit/miss line: a timed reload below it is a hit."""
        return (self.l1_hit + self.dram) // 2

    def single_hit(self, latencies) -> int | None:
        """Flush+Reload's decode: the index of the one timed reload below
        hit_threshold, or None when no reload or more than one is a hit."""
        threshold = self.hit_threshold
        hits = [i for i, elapsed in enumerate(latencies) if elapsed < threshold]
        return hits[0] if len(hits) == 1 else None


@dataclass
class CycleCounter:
    """Monotone cycle counter with optional uniform read noise."""

    current: int = 0
    noise_amplitude: int = 0

    def advance(self, cycles: int) -> None:
        self.current += cycles

    def read(self, rng: random.Random | None = None) -> int:
        value = self.current
        if self.noise_amplitude and rng is not None:
            value += rng.randint(-self.noise_amplitude, self.noise_amplitude)
        return value


class Level(Enum):
    L1 = "L1"
    L2 = "L2"
    DRAM = "DRAM"


# members returned and compared on every call; a module-level name is read faster
_L1, _L2, _DRAM = _LEVELS = (Level.L1, Level.L2, Level.DRAM)


@dataclass
class AccessResult:
    value: int
    latency: int
    level: Level


class MemorySystem:
    """Data cells plus the cache hierarchy, page table, and cycle counter."""

    def __init__(
        self,
        l1: CacheGeometry,
        l2: CacheGeometry,
        latencies: Latencies | None = None,
        counter: CycleCounter | None = None,
        rng: random.Random | None = None,
    ):
        self.cells: dict = {}
        self.l1 = CacheLevel(l1)
        self.l2 = CacheLevel(l2)
        self.pages = PageTable()
        self.lat = latencies or Latencies()
        self.counter = counter or CycleCounter()
        self.rng = rng or random.Random(0)

    # -- checks -------------------------------------------------------------

    def check_access(self, addr: int, privilege: Privilege) -> None:
        entry = self.pages.entry(addr)
        if not entry.mapped:
            raise PageFault(addr)
        if entry.privileged and privilege is _USER:
            raise PrivilegeFault(addr)

    # -- cache mechanics ----------------------------------------------------

    def probe_level(self, addr: int) -> Level:
        """Which level would serve this address right now (no state change)."""
        line = line_of(addr)
        if self.l1.contains(line):
            return _L1
        if self.l2.contains(line):
            return _L2
        return _DRAM

    def latency_for(self, level: Level) -> int:
        if level is _L1:
            return self.lat.l1_hit
        if level is _L2:
            return self.lat.l2_hit
        return self.lat.dram

    def fill(self, addr: int, outcomes: tuple = _LEVELS):
        """Look up a line and fill every level up to L1 on a miss.  Returns
        the entry of the (L1, L2, DRAM) triple `outcomes` for the level that
        served the request (before filling): by default, that Level.  A line
        that is already the most recent of its L1 set is an L1 hit that
        moves nothing in either level, so it returns at once."""
        line = addr // LINE_SIZE  # line_of inline: per load
        l1 = self.l1
        entries = l1._sets[line % l1.nsets]
        if entries and entries[-1] == line:
            return outcomes[0]
        return self._fill_lines(line, 1, outcomes)[0]

    def _fill_lines(self, first: int, count: int, outcomes: tuple) -> list:
        """Look up `count` consecutive lines from line number `first` in
        order, filling every level up to L1 on a miss, strict LRU in each
        set.  Returns, per line, the entry of the (L1, L2, DRAM) triple
        `outcomes` for the level that served it.  An empty set is never
        scanned: it holds no line and is not full, so a fill into it only
        appends."""
        sets1, nsets1, ways1 = self.l1._sets, self.l1.nsets, self.l1.ways
        sets2, nsets2, ways2 = self.l2._sets, self.l2.nsets, self.l2.ways
        from_l1, from_l2, from_dram = outcomes
        served = []
        serve = served.append
        for line in range(first, first + count):
            entries = sets1[line % nsets1]
            if entries:
                if line in entries:
                    if entries[-1] != line:
                        entries.remove(line)
                        entries.append(line)
                    serve(from_l1)
                    continue
                if len(entries) >= ways1:
                    del entries[0]
            lower = sets2[line % nsets2]
            if not lower:
                serve(from_dram)
            elif line in lower:
                lower.remove(line)
                serve(from_l2)
            else:
                if len(lower) >= ways2:
                    del lower[0]
                serve(from_dram)
            lower.append(line)
            entries.append(line)
        return served

    def _reload_drop_lines(self, first: int, count: int, outcomes: tuple) -> list:
        """What _fill_lines(first, count, outcomes) and then _drop_lines(first,
        count) do.  A run of at most min(L1 sets, L2 sets) lines meets no
        other line of it in its set in either level, so each line's net
        effect is applied in place and it is never inserted: an L1 hit leaves
        both levels, an L2 hit leaves L2 and evicts the oldest line of a full
        L1 set, and a miss evicts the oldest line of each full set.  Sets are
        stored oldest first, so the oldest line is at index 0; an empty set
        is never scanned.  A longer run is filled and then dropped."""
        sets1, nsets1, ways1 = self.l1._sets, self.l1.nsets, self.l1.ways
        sets2, nsets2, ways2 = self.l2._sets, self.l2.nsets, self.l2.ways
        if count > min(nsets1, nsets2):
            served = self._fill_lines(first, count, outcomes)
            self._drop_lines(first, count)
            return served
        from_l1, from_l2, from_dram = outcomes
        served = []
        serve = served.append
        for line in range(first, first + count):
            entries = sets1[line % nsets1]
            lower = sets2[line % nsets2]
            if entries:
                if line in entries:
                    entries.remove(line)
                    if line in lower:
                        lower.remove(line)
                    serve(from_l1)
                    continue
                if len(entries) >= ways1:
                    del entries[0]
            if not lower:
                serve(from_dram)
            elif line in lower:
                lower.remove(line)
                serve(from_l2)
            else:
                if len(lower) >= ways2:
                    del lower[0]
                serve(from_dram)
        return served

    def _drop_lines(self, first: int, count: int) -> None:
        """Drop `count` consecutive lines from line number `first` from both
        levels; an empty set is not scanned."""
        sets1, nsets1 = self.l1._sets, self.l1.nsets
        sets2, nsets2 = self.l2._sets, self.l2.nsets
        for line in range(first, first + count):
            entries = sets1[line % nsets1]
            if entries and line in entries:
                entries.remove(line)
            entries = sets2[line % nsets2]
            if entries and line in entries:
                entries.remove(line)

    def invalidate_line(self, addr: int) -> None:
        """Drop a line from both levels, no privilege check (experiment plumbing)."""
        self._drop_lines(line_of(addr), 1)

    # -- architectural operations --------------------------------------------

    def access(self, addr: int, privilege: Privilege = Privilege.KERNEL) -> AccessResult:
        """Read one cell through the hierarchy, updating LRU and the counter."""
        self.check_access(addr, privilege)
        level = self.fill(addr)
        latency = self.latency_for(level)
        self.counter.advance(latency)
        return AccessResult(self.cells.get(addr, 0), latency, level)

    def flush_line(self, addr: int) -> None:
        """Invalidate a line from both levels.  Idempotent."""
        self.flush_lines(addr, 1)

    # -- Flush+Reload -------------------------------------------------------

    def flush_lines(self, base: int, count: int) -> None:
        """Flush `count` consecutive lines from `base`, one cycle each."""
        self._drop_lines(line_of(base), count)
        self.counter.current += count

    def probe_lines(
        self, base: int, count: int, privilege: Privilege = Privilege.KERNEL
    ) -> list[int]:
        """Timed reload of `count` consecutive lines from `base`.

        Returns each line's measured latency, bracketed by two counter reads
        exactly as read_cycles, access, read_cycles would give it line by
        line: the same noise draws in the same order, the same cache and
        counter state.  A faulting line raises its PageFault or
        PrivilegeFault after the lines before it were reloaded and counted
        and its own first counter read was taken.
        """
        return self._probe(base, count, privilege, drop=False)

    def probe_and_flush_lines(
        self, base: int, count: int, privilege: Privilege = Privilege.KERNEL
    ) -> list[int]:
        """probe_lines(base, count, privilege) followed by
        flush_lines(base, count), in one pass over the lines: the same
        latencies, noise draws, cache and counter state and exceptions.  A
        faulting line raises as in probe_lines and nothing is flushed."""
        timings = self._probe(base, count, privilege, drop=True)
        self.counter.current += count
        return timings

    def _probe(self, base: int, count: int, privilege: Privilege, drop: bool) -> list[int]:
        """probe_lines; with `drop`, a reload that faults on no line also
        drops every line it reloaded (the flush, less its cycles).  An empty
        page table maps every page unprivileged, so it is not walked."""
        fault = None
        if self.pages._entries:
            count, fault = self._first_fault(base, count, privilege)  # lines before a fault
        lat = self.lat
        outcomes = (lat.l1_hit, lat.l2_hit, lat.dram)
        if drop and fault is None:
            timings = self._reload_drop_lines(line_of(base), count, outcomes)
        else:
            timings = self._fill_lines(line_of(base), count, outcomes)
        self.counter.current += sum(timings)
        amp = self.counter.noise_amplitude
        if amp:
            draw = self.rng.randint
            for i, cost in enumerate(timings):
                # the read after the fill minus the read before it
                timings[i] = cost - draw(-amp, amp) + draw(-amp, amp)
            if fault is not None:
                draw(-amp, amp)  # the faulting line's first counter read
        if fault is not None:
            raise fault
        return timings

    def _first_fault(self, base: int, count: int, privilege: Privilege) -> tuple:
        """(lines accessible before the first fault, that fault or None) for
        `count` lines from `base`.  Every line of a page shares its check."""
        i = 0
        while i < count:
            addr = base + i * LINE_SIZE
            try:
                self.check_access(addr, privilege)
            except MemoryFault as fault:
                return i, fault
            i += -(-(PAGE_SIZE - addr % PAGE_SIZE) // LINE_SIZE)
        return count, None

    def read_cycles(self) -> int:
        return self.counter.read(self.rng)


# -- eviction primitives ------------------------------------------------------


@dataclass(frozen=True)
class EvictionParams:
    """Shape of the pattern-based eviction loop.

    loops iterations; each iteration starts `shift` lines further into the
    candidate buffer and touches `accesses` consecutive congruent lines.
    """

    loops: int
    shift: int
    accesses: int


class EvictionRegionError(ValueError):
    """The candidate buffer is too small for the requested pattern."""


def _congruent_base(mem: MemorySystem, base: int, target: int) -> tuple:
    """First address >= base congruent with target in both cache levels."""
    span = max(mem.l1.geometry.span_bytes, mem.l2.geometry.span_bytes)
    offset = (target % span - base % span) % span
    return base + offset, span


def evict_with_pattern(
    mem: MemorySystem,
    base: int,
    region_size: int,
    params: EvictionParams,
    target: int,
    privilege: Privilege = Privilege.KERNEL,
) -> list:
    """Run the sliding-window eviction loop against `target`'s cache set.

    Accesses candidate lines congruent with the target through access, and
    returns their addresses in the order touched.  Whether the pattern
    actually evicts depends on the parameters and the geometry; callers
    verify with probe_level or fall back to sweep_evict.
    """
    start, span = _congruent_base(mem, base, target)
    max_index = 0
    if params.loops > 0 and params.accesses > 0:
        max_index = (params.loops - 1) * params.shift + params.accesses - 1
    needed = (start - base) + max_index * span + LINE_SIZE
    if needed > region_size:
        raise EvictionRegionError(
            f"pattern needs {needed} bytes of candidate region, only {region_size} available"
        )
    touched = [start + (i * params.shift + j) * span
               for i in range(params.loops) for j in range(params.accesses)]
    for addr in touched:
        mem.access(addr, privilege)
    return touched


def sweep_evict(
    mem: MemorySystem,
    buffer_size: int,
    base: int = SWEEP_BASE,
    privilege: Privilege = Privilege.KERNEL,
) -> int:
    """Touch every line of a large buffer, displacing all prior cache contents.

    Requires a buffer of at least 3x the L2 capacity; returns the number of
    lines touched.
    """
    minimum = 3 * mem.l2.geometry.capacity_bytes
    if buffer_size < minimum:
        raise ValueError(
            f"sweep buffer must be >= 3x L2 capacity ({minimum} bytes), got {buffer_size}"
        )
    lines = buffer_size // LINE_SIZE
    for k in range(lines):
        mem.access(base + k * LINE_SIZE, privilege)
    return lines

