"""Cache hierarchy against a brute-force LRU model, plus faults and eviction."""

import random

import pytest

from transient_sim.memory import (
    LINE_SIZE,
    CacheGeometry,
    CycleCounter,
    EvictionParams,
    EvictionRegionError,
    PAGE_SIZE,
    Latencies,
    Level,
    MemoryFault,
    MemorySystem,
    PageFault,
    Privilege,
    PrivilegeFault,
    evict_with_pattern,
    sweep_evict,
)
from transient_sim.profiles import PROFILES, get_profile


class LruModel:
    """Brute-force reference for one set-associative level.

    Deliberately naive: plain lists, most recent first, trimmed after insert.
    """

    def __init__(self, sets: int, ways: int):
        self.sets = sets
        self.ways = ways
        self.entries = [[] for _ in range(sets)]

    def touch(self, line: int) -> bool:
        bucket = self.entries[line % self.sets]
        if line in bucket:
            bucket.remove(line)
            bucket.insert(0, line)
            return True
        return False

    def install(self, line: int) -> None:
        bucket = self.entries[line % self.sets]
        if line in bucket:
            bucket.remove(line)
        bucket.insert(0, line)
        del bucket[self.ways :]


class HierarchyModel:
    """Two LruModel levels wired the same way MemorySystem.fill is."""

    def __init__(self, l1: CacheGeometry, l2: CacheGeometry):
        self.l1 = LruModel(l1.sets, l1.ways)
        self.l2 = LruModel(l2.sets, l2.ways)

    def access(self, addr: int) -> str:
        line = addr // LINE_SIZE
        if self.l1.touch(line):
            return "L1"
        if self.l2.touch(line):
            self.l1.install(line)
            return "L2"
        self.l2.install(line)
        self.l1.install(line)
        return "DRAM"

    def drop(self, addr: int) -> None:
        line = addr // LINE_SIZE
        for level in (self.l1, self.l2):
            bucket = level.entries[line % level.sets]
            if line in bucket:
                bucket.remove(line)


def assert_same_recency(mem: MemorySystem, model: HierarchyModel) -> None:
    """Every set of both levels holds the model's lines in its exact order,
    most recent first."""
    for name in ("l1", "l2"):
        want = [(i, tuple(bucket)) for i, bucket in enumerate(getattr(model, name).entries)
                if bucket]
        assert getattr(mem, name).lru_view() == want, name


def test_small_l1_matches_brute_force_model_over_10k_accesses():
    mem = MemorySystem(l1=CacheGeometry(4, 2), l2=CacheGeometry(16, 4))
    model = HierarchyModel(CacheGeometry(4, 2), CacheGeometry(16, 4))
    rng = random.Random(20260816)
    hits = 0
    for _ in range(10_000):
        addr = rng.randrange(0, 512 * LINE_SIZE)
        got = mem.access(addr).level.value
        want = model.access(addr)
        assert got == want, f"addr {addr:#x}: cache said {got}, model said {want}"
        assert_same_recency(mem, model)
        hits += got == "L1"
    # the workload should actually exercise all three levels
    assert 0 < hits < 10_000


def test_profile_geometries_match_model_too():
    prof = get_profile("intel_i7")
    mem = MemorySystem(l1=prof.l1, l2=prof.l2)
    model = HierarchyModel(prof.l1, prof.l2)
    rng = random.Random(99)
    for _ in range(3_000):
        addr = rng.randrange(0, 4 * prof.l2.capacity_bytes)
        assert mem.access(addr).level.value == model.access(addr)
        assert_same_recency(mem, model)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_fill_matches_model_on_every_kind_of_hit(name):
    # the draws re-touch recent lines of four L1 sets, so fill meets a hit on
    # its L1 set's most recent line (served without moving anything), any
    # other L1 hit, an L2 hit and a miss; each call passes the default
    # outcomes or a triple of its own
    prof = get_profile(name)
    mem, model = MemorySystem(l1=prof.l1, l2=prof.l2), HierarchyModel(prof.l1, prof.l2)
    sets1, ways1 = prof.l1.sets, prof.l1.ways
    hot = [s + k * sets1 for s in range(4) for k in range(3 * ways1)]
    fresh = iter(range(3 * ways1 * sets1, 1 << 30, sets1))  # never drawn before
    levels, own = ("L1", "L2", "DRAM"), ("first", "second", "third")
    rng = random.Random(2702)
    recent = [hot[0]]
    cases = dict.fromkeys(("most recent", "L1", "L2", "DRAM"), 0)
    for step in range(3_000):
        pick = rng.random()
        if pick < 0.35:
            line = recent[-1]
        elif pick < 0.7:
            line = rng.choice(recent[-8:])
        elif pick < 0.9:
            line = rng.choice(hot)
        else:
            line = next(fresh) + rng.randrange(4)
        most_recent = model.l1.entries[line % sets1][:1] == [line]
        addr = line * LINE_SIZE + rng.randrange(LINE_SIZE)
        want = model.access(addr)
        cases["most recent" if most_recent else want] += 1
        if rng.random() < 0.5:
            assert mem.fill(addr).value == want, (step, line)
        else:
            assert mem.fill(addr, own) is own[levels.index(want)], (step, line)
        assert_same_recency(mem, model)
        recent.append(line)
    assert min(cases.values()) >= 100, cases


def test_same_line_different_offsets_hit():
    mem = MemorySystem(l1=CacheGeometry(4, 2), l2=CacheGeometry(16, 4))
    mem.access(0x1000)
    assert mem.access(0x1000 + LINE_SIZE - 1).level is Level.L1


def test_fill_populates_both_levels_and_l1_eviction_leaves_l2():
    geo = CacheGeometry(1, 2)  # single set, easy to overflow
    mem = MemorySystem(l1=geo, l2=CacheGeometry(1, 8))
    mem.access(0)
    assert mem.probe_level(0) is Level.L1
    mem.access(1 * LINE_SIZE)
    mem.access(2 * LINE_SIZE)  # kicks line 0 out of the 2-way L1
    assert mem.probe_level(0) is Level.L2


def test_probe_level_does_not_perturb_lru():
    mem = MemorySystem(l1=CacheGeometry(1, 2), l2=CacheGeometry(1, 8))
    mem.access(0)
    mem.access(LINE_SIZE)
    for _ in range(5):
        mem.probe_level(0)  # must not refresh line 0
    mem.access(2 * LINE_SIZE)
    assert mem.probe_level(0) is Level.L2  # 0 was LRU despite the probes


def test_full_set_evicts_its_least_recent_line():
    mem = MemorySystem(l1=CacheGeometry(1, 2), l2=CacheGeometry(1, 8))
    assert [mem.fill(k * LINE_SIZE) for k in (0, 1, 2)] == [Level.DRAM] * 3
    assert mem.probe_level(0) is Level.L2  # line 2 evicted line 0 from L1
    assert mem.fill(LINE_SIZE) is Level.L1  # already present, refreshed
    assert mem.fill(0) is Level.L2
    assert mem.probe_level(2 * LINE_SIZE) is Level.L2  # 2 was least recent
    assert mem.probe_level(LINE_SIZE) is Level.L1


def test_geometry_must_be_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        CacheGeometry(3, 2)
    with pytest.raises(ValueError, match="power of two"):
        CacheGeometry(4, 0)


def test_latency_ordering_enforced():
    with pytest.raises(ValueError, match="l1 < l2 < dram"):
        Latencies(l1_hit=10, l2_hit=5, dram=200, page_fault=1000)


def test_access_latencies_follow_serving_level():
    mem = MemorySystem(l1=CacheGeometry(4, 2), l2=CacheGeometry(16, 4))
    first = mem.access(0x40)
    again = mem.access(0x40)
    assert (first.level, first.latency) == (Level.DRAM, mem.lat.dram)
    assert (again.level, again.latency) == (Level.L1, mem.lat.l1_hit)
    assert mem.counter.current == mem.lat.dram + mem.lat.l1_hit


def test_write_stores_value_and_read_returns_it():
    mem = MemorySystem(l1=CacheGeometry(4, 2), l2=CacheGeometry(16, 4))
    mem.cells[0x80] = 42  # what a retiring store writes
    assert mem.access(0x80).value == 42
    assert mem.access(0x88).value == 0  # neighbouring cell unset


class TestFaults:
    def test_unmapped_page_faults(self):
        mem = MemorySystem(l1=CacheGeometry(4, 2), l2=CacheGeometry(16, 4))
        mem.pages.set_mapped(0x5000, False)
        with pytest.raises(PageFault) as exc:
            mem.access(0x5008)
        assert exc.value.addr == 0x5008
        mem.access(0x6000)  # next page unaffected

    def test_privileged_page_blocks_user(self):
        mem = MemorySystem(l1=CacheGeometry(4, 2), l2=CacheGeometry(16, 4))
        mem.pages.set_privileged(0x7000, True)
        with pytest.raises(PrivilegeFault):
            mem.access(0x7000, Privilege.USER)
        mem.access(0x7000, Privilege.KERNEL)

    def test_flush_is_idempotent(self):
        mem = MemorySystem(l1=CacheGeometry(4, 2), l2=CacheGeometry(16, 4))
        mem.access(0x40)
        start = mem.counter.current
        mem.flush_line(0x40)
        mem.flush_line(0x40)
        assert mem.probe_level(0x40) is Level.DRAM
        mem.flush_lines(0x40, 5)
        assert mem.counter.current == start + 7  # one cycle per flushed line


REGION = 0x1_0000  # four pages of lines for the Flush+Reload twins
REGION_LINES = 4 * PAGE_SIZE // LINE_SIZE


def _per_line_probe(mem, base, count, privilege):
    """The reload phase spelled out with the per-line public calls."""
    latencies = []
    for i in range(count):
        before = mem.read_cycles()
        mem.access(base + i * LINE_SIZE, privilege)
        latencies.append(mem.read_cycles() - before)
    return latencies


def _per_line_flush(mem, base, count):
    for i in range(count):
        mem.flush_line(base + i * LINE_SIZE)


def _per_line_probe_and_flush(mem, base, count, privilege):
    latencies = _per_line_probe(mem, base, count, privilege)
    _per_line_flush(mem, base, count)
    return latencies


def _outcome(call):
    try:
        return call(), None
    except MemoryFault as exc:
        return None, (type(exc), getattr(exc, "addr", None), str(exc))


def _state(mem):
    """Everything a later operation could observe: the level of every line in
    the region, the counter, the noise stream, then the levels a fixed access
    sequence meets (which exposes the LRU order within each set)."""
    levels = [mem.probe_level(REGION + k * LINE_SIZE) for k in range(REGION_LINES + 8)]
    counter, rng_state = mem.counter.current, mem.rng.getstate()
    follow = random.Random(7)
    replay = [mem.fill(REGION + follow.randrange(REGION_LINES) * LINE_SIZE) for _ in range(64)]
    return levels, counter, rng_state, replay


# Noise, privilege and page attributes of the seeded twins, and whether
# some reload among their 40 seeds faults.  A page attribute is (page,
# setter) to set the named attribute, privileged or unmapped, or (page,
# setter, value) to set it to value.
_TWIN_CASES = pytest.mark.parametrize(
    "noise, privilege, pages, faults",
    [
        (0, Privilege.USER, (), False),
        (5, Privilege.USER, (), False),
        (4, Privilege.USER, ((2, "set_privileged"),), True),
        (4, Privilege.KERNEL, ((2, "set_privileged"),), False),
        (2, Privilege.KERNEL, ((1, "set_mapped"),), True),
        (0, Privilege.USER, ((2, "set_privileged"),), True),
        (0, Privilege.KERNEL, ((1, "set_mapped"),), True),
        (3, Privilege.USER, ((1, "set_mapped", True), (3, "set_privileged", False)), False),
    ],
    ids=["exact", "noise", "privileged-page-user", "privileged-page-kernel",
         "unmapped-page", "exact-privileged-page-user", "exact-unmapped-page",
         "ordinary-entries"],
)


def test_single_hit_decodes_exactly_one_reload_below_the_threshold():
    lat = Latencies()
    threshold = lat.hit_threshold
    assert lat.single_hit([threshold + 1, lat.dram]) is None  # no hit
    assert lat.single_hit([lat.dram, lat.l1_hit, lat.dram]) == 1
    assert lat.single_hit([lat.l1_hit, threshold - 1]) is None  # two hits
    assert lat.single_hit([threshold, threshold - 1]) == 1  # the threshold itself misses
    assert lat.single_hit([threshold]) is None
    assert lat.single_hit([]) is None


class TestFlushReloadPrimitive:
    """probe_lines/flush_lines against the per-line public path they replace,
    from seeded random cache states over seeded random line ranges."""

    @staticmethod
    def _twins(seed, noise, pages, l1=CacheGeometry(4, 2), l2=CacheGeometry(16, 4), warm=120):
        def build():
            mem = MemorySystem(
                l1=l1,
                l2=l2,
                counter=CycleCounter(current=seed * 13, noise_amplitude=noise),
                rng=random.Random(seed),
            )
            fills = random.Random(seed)
            for _ in range(warm):
                mem.fill(REGION + fills.randrange(REGION_LINES) * LINE_SIZE)
            for page, attr, *value in pages:
                setting = value[0] if value else attr == "set_privileged"
                getattr(mem.pages, attr)(REGION + page * PAGE_SIZE, setting)
            return mem

        return build(), build()

    @_TWIN_CASES
    def test_probe_then_flush_then_probe_matches_per_line_path(
        self, noise, privilege, pages, faults
    ):
        faulted = 0
        for seed in range(40):
            fast, slow = self._twins(seed, noise, pages)
            pick = random.Random(1000 + seed)
            base = REGION + pick.randrange(REGION_LINES) * LINE_SIZE + pick.randrange(LINE_SIZE)
            count = pick.randint(1, 130)
            for step in ("probe", "flush", "probe"):
                if step == "probe":
                    got = _outcome(lambda: fast.probe_lines(base, count, privilege))
                    want = _outcome(lambda: _per_line_probe(slow, base, count, privilege))
                else:
                    got = _outcome(lambda: fast.flush_lines(base, count))
                    want = _outcome(lambda: _per_line_flush(slow, base, count))
                assert got == want, f"seed {seed} {step} {base:#x}+{count}"
                assert _state(fast) == _state(slow), f"seed {seed} {step} {base:#x}+{count}"
                faulted += got[1] is not None
        assert bool(faulted) == faults

    @staticmethod
    def _reload_steps(fast, slow, base, count, privilege, label):
        """Probe-and-flush, probe, probe-and-flush on both twins, checking the
        outcome and the state after every step; returns the outcomes."""
        outcomes = []
        for step in ("probe_and_flush", "probe", "probe_and_flush"):
            if step == "probe":
                got = _outcome(lambda: fast.probe_lines(base, count, privilege))
                want = _outcome(lambda: _per_line_probe(slow, base, count, privilege))
            else:
                got = _outcome(lambda: fast.probe_and_flush_lines(base, count, privilege))
                want = _outcome(lambda: _per_line_probe_and_flush(slow, base, count, privilege))
            assert got == want, f"{label} {step} {base:#x}+{count}"
            assert _state(fast) == _state(slow), f"{label} {step} {base:#x}+{count}"
            outcomes.append(got)
        return outcomes

    @_TWIN_CASES
    def test_probe_and_flush_matches_per_line_probe_then_flush(
        self, noise, privilege, pages, faults
    ):
        faulted = 0
        for seed in range(40):
            fast, slow = self._twins(seed, noise, pages)
            pick = random.Random(2000 + seed)
            base = REGION + pick.randrange(REGION_LINES) * LINE_SIZE + pick.randrange(LINE_SIZE)
            # up to L1's 4 sets every line is reloaded in place; a longer
            # run is filled and then dropped
            count = pick.randint(1, pick.choice((4, 130)))
            outcomes = self._reload_steps(fast, slow, base, count, privilege, f"seed {seed}")
            faulted += sum(got[1] is not None for got in outcomes)
        assert bool(faulted) == faults

    @pytest.mark.parametrize(
        "l1, l2",
        [
            (CacheGeometry(8, 2), CacheGeometry(4, 4)),
            (CacheGeometry(1, 2), CacheGeometry(16, 4)),
            (CacheGeometry(64, 8), CacheGeometry(512, 8)),
        ],
        ids=["l2-fewer-sets", "one-set-l1", "intel-i7"],
    )
    def test_probe_and_flush_matches_per_line_path_on_other_geometries(self, l1, l2):
        for seed in range(30):
            fast, slow = self._twins(seed, 2, (), l1, l2)
            pick = random.Random(3000 + seed)
            base = REGION + pick.randrange(REGION_LINES) * LINE_SIZE
            count = pick.randint(0, 140)
            self._reload_steps(fast, slow, base, count, Privilege.USER, f"seed {seed}")

    @pytest.mark.parametrize("warm", [0, 6], ids=["cold", "sparse"])
    @pytest.mark.parametrize(
        "l1, l2",
        [
            (CacheGeometry(4, 2), CacheGeometry(16, 4)),
            (CacheGeometry(64, 8), CacheGeometry(512, 8)),
        ],
        ids=["small", "intel-i7"],
    )
    def test_empty_sets_match_per_line_path(self, warm, l1, l2):
        # from no or a few warm fills most sets are empty, so every line loop
        # (the fill, the in-place reload and the drop) meets empty sets
        for seed in range(30):
            fast, slow = self._twins(seed, 2, (), l1, l2, warm)
            pick = random.Random(4000 + seed)
            base = REGION + pick.randrange(REGION_LINES) * LINE_SIZE + pick.randrange(LINE_SIZE)
            count = pick.randint(1, pick.choice((4, 130)))
            label = f"seed {seed}"
            self._reload_steps(fast, slow, base, count, Privilege.USER, label)
            fast.flush_lines(base, count)
            _per_line_flush(slow, base, count)
            assert _state(fast) == _state(slow), f"{label} flush {base:#x}+{count}"
            self._reload_steps(fast, slow, base, count, Privilege.USER, label)

    @pytest.mark.parametrize("warm", [0, 6], ids=["cold", "sparse"])
    @pytest.mark.parametrize(
        "l1, l2",
        [
            (CacheGeometry(4, 2), CacheGeometry(16, 4)),
            (CacheGeometry(64, 8), CacheGeometry(512, 8)),
        ],
        ids=["small", "intel-i7"],
    )
    def test_batched_reloads_match_the_lru_model(self, warm, l1, l2):
        # the per-line twins share _fill_lines with the batched calls, so
        # these check the served level of each line and every set's order
        # against the independent model instead
        lat = Latencies()
        levels = {lat.l1_hit: "L1", lat.l2_hit: "L2", lat.dram: "DRAM"}
        for seed in range(30):
            mem, model = MemorySystem(l1=l1, l2=l2, latencies=lat), HierarchyModel(l1, l2)
            pick = random.Random(5000 + seed)
            for _ in range(warm):
                addr = REGION + pick.randrange(REGION_LINES) * LINE_SIZE
                mem.fill(addr)
                model.access(addr)
            for step in ("probe_and_flush", "probe", "probe_and_flush", "probe", "probe"):
                base = REGION + pick.randrange(REGION_LINES) * LINE_SIZE + pick.randrange(LINE_SIZE)
                count = pick.randint(1, pick.choice((4, 130)))
                addrs = [base + i * LINE_SIZE for i in range(count)]
                if step == "probe":
                    got = mem.probe_lines(base, count)
                else:
                    got = mem.probe_and_flush_lines(base, count)
                want = [model.access(addr) for addr in addrs]
                if step == "probe_and_flush":
                    for addr in addrs:
                        model.drop(addr)
                label = f"seed {seed} {step} {base:#x}+{count}"
                assert [levels[t] for t in got] == want, label
                assert_same_recency(mem, model)


class TestCycleCounter:
    def test_noise_bounded_and_seeded(self):
        counter = CycleCounter(current=500, noise_amplitude=7)
        values = [counter.read(random.Random(k)) for k in range(50)]
        assert all(493 <= v <= 507 for v in values)
        assert len(set(values)) > 1
        assert values == [counter.read(random.Random(k)) for k in range(50)]

    def test_noiseless_read_is_exact(self):
        counter = CycleCounter()
        counter.advance(37)
        assert counter.read(random.Random(0)) == 37


class TestEviction:
    @pytest.mark.parametrize("name", ["cortex_a53", "cortex_a9", "cortex_a72"])
    def test_pattern_evicts_exactly_like_sweep(self, name):
        prof = get_profile(name)
        assert prof.eviction_params is not None
        target = 0x5000

        patterned = MemorySystem(l1=prof.l1, l2=prof.l2)
        patterned.access(target)
        assert patterned.probe_level(target) is Level.L1
        evict_with_pattern(
            patterned, 0x10_0000, 8 << 20, prof.eviction_params, target
        )

        swept = MemorySystem(l1=prof.l1, l2=prof.l2)
        swept.access(target)
        sweep_evict(swept, 3 * prof.l2.capacity_bytes)

        assert swept.probe_level(target) is Level.DRAM
        assert patterned.probe_level(target) is swept.probe_level(target)

    def test_sweep_only_profiles_have_no_pattern(self):
        assert get_profile("cortex_a8").eviction_params is None
        assert get_profile("intel_i7").eviction_params is None

    def test_too_few_congruent_accesses_do_not_evict(self):
        prof = get_profile("cortex_a72")
        mem = MemorySystem(l1=prof.l1, l2=prof.l2)
        target = 0x5000
        mem.access(target)
        weak = EvictionParams(loops=1, shift=1, accesses=prof.l2.ways - 1)
        evict_with_pattern(mem, 0x10_0000, 8 << 20, weak, target)
        assert mem.probe_level(target) is not Level.DRAM

    def test_pattern_touches_only_congruent_lines(self):
        prof = get_profile("cortex_a9")
        mem = MemorySystem(l1=prof.l1, l2=prof.l2)
        target = 0x5000
        span = max(mem.l1.geometry.span_bytes, mem.l2.geometry.span_bytes)
        touched = evict_with_pattern(
            mem, 0x10_0000, 8 << 20, prof.eviction_params, target
        )
        assert touched, "pattern produced no accesses"
        assert all(addr % span == target % span for addr in touched)

    def test_region_too_small_raises(self):
        prof = get_profile("cortex_a72")
        mem = MemorySystem(l1=prof.l1, l2=prof.l2)
        with pytest.raises(EvictionRegionError):
            evict_with_pattern(mem, 0x10_0000, 4096, prof.eviction_params, 0x5000)

    def test_sweep_requires_three_l2_capacities(self):
        mem = MemorySystem(l1=CacheGeometry(4, 2), l2=CacheGeometry(16, 4))
        with pytest.raises(ValueError, match="3x L2 capacity"):
            sweep_evict(mem, 2 * mem.l2.geometry.capacity_bytes)


def test_every_profile_geometry_is_valid():
    for prof in PROFILES.values():
        assert prof.l1.capacity_bytes >= 4 * LINE_SIZE
        assert prof.l2.capacity_bytes > prof.l1.capacity_bytes
