"""Tests for the cache models and memory hierarchy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.caches.hierarchy import MemoryHierarchy
from repro.caches.presets import l1d_cache, l1i_cache
from repro.caches.sa_cache import CacheStats, SetAssociativeCache
from repro.errors import ConfigurationError


class TestSetAssociativeCache:
    def setup_method(self):
        self.cache = SetAssociativeCache(sets=4, ways=2, line_bytes=64)

    def test_miss_then_hit(self):
        assert not self.cache.access(0x1000)
        assert self.cache.access(0x1000)
        assert self.cache.access(0x1004)  # same line

    def test_set_mapping(self):
        assert self.cache.set_index(0x0) == 0
        assert self.cache.set_index(0x40) == 1
        assert self.cache.set_index(0x100) == 0  # wraps at 4 sets

    def test_lru_eviction(self):
        self.cache.access(0x000)  # set 0
        self.cache.access(0x100)  # set 0
        self.cache.access(0x000)  # refresh first
        self.cache.access(0x200)  # set 0: evicts 0x100 (LRU)
        assert self.cache.probe(0x000)
        assert not self.cache.probe(0x100)

    def test_flush_line(self):
        self.cache.access(0x1000)
        assert self.cache.flush_line(0x1000)
        assert not self.cache.probe(0x1000)
        assert not self.cache.flush_line(0x1000)

    def test_flush_all(self):
        self.cache.access(0x1000)
        self.cache.flush_all()
        assert self.cache.occupancy(self.cache.set_index(0x1000)) == 0

    def test_probe_no_side_effects(self):
        self.cache.access(0x000)
        self.cache.access(0x100)
        self.cache.probe(0x000)  # must not refresh LRU
        self.cache.access(0x200)
        assert not self.cache.probe(0x000)

    def test_lru_stack_order(self):
        self.cache.access(0x000)
        self.cache.access(0x100)
        assert self.cache.lru_stack(0) == [0x000, 0x100]
        self.cache.access(0x000)
        assert self.cache.lru_stack(0) == [0x100, 0x000]

    def test_stats(self):
        self.cache.access(0x0)
        self.cache.access(0x0)
        assert self.cache.stats.hits == 1
        assert self.cache.stats.misses == 1
        assert self.cache.stats.miss_rate == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(sets=3, ways=2, line_bytes=64)
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(sets=4, ways=0, line_bytes=64)
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(sets=4, ways=2, line_bytes=60)


class TestPresets:
    def test_l1_geometry_matches_table1(self):
        """Table I: 32KB, 8-way, 64-byte lines, 64 sets."""
        for cache in (l1i_cache(), l1d_cache()):
            assert cache.sets == 64
            assert cache.ways == 8
            assert cache.line_bytes == 64
            assert cache.size_bytes == 32 * 1024


class TestMemoryHierarchy:
    def setup_method(self):
        self.mem = MemoryHierarchy()

    def test_first_access_dram(self):
        result = self.mem.load(0x1000)
        assert result.level == "DRAM"
        assert not result.l1_hit

    def test_second_access_l1(self):
        self.mem.load(0x1000)
        assert self.mem.load(0x1000).level == "L1"

    def test_latency_ordering(self):
        lat = self.mem.latencies
        assert lat.l1 < lat.l2 < lat.llc < lat.dram

    def test_l1_eviction_falls_to_l2(self):
        # Fill one L1 set (8 ways) plus one more line: same L1 set needs
        # a 4096-byte stride (64 sets x 64B).
        for way in range(9):
            self.mem.load(0x1000 + way * 4096)
        result = self.mem.load(0x1000)
        assert result.level == "L2"

    def test_flush_line_reaches_all_levels(self):
        self.mem.load(0x1000)
        self.mem.flush_line(0x1000)
        assert self.mem.load(0x1000).level == "DRAM"

    def test_probe_latency_matches_load_level(self):
        self.mem.load(0x1000)
        assert self.mem.probe_latency(0x1000) == self.mem.latencies.l1
        assert self.mem.probe_latency(0x9999000) == self.mem.latencies.dram

    def test_l1_miss_rate(self):
        self.mem.load(0x1000)
        self.mem.load(0x1000)
        assert self.mem.l1_miss_rate == pytest.approx(0.5)


# ----------------------------------------------------------------------
# batch kernels: access_many / load_many against the per-address loop
# ----------------------------------------------------------------------
_geometries = st.tuples(
    st.sampled_from([1, 2, 4, 8]),  # sets
    st.integers(1, 4),  # ways
    st.sampled_from([1, 4, 16]),  # line bytes
)


def _cache(geometry, name="cache") -> SetAssociativeCache:
    sets, ways, line_bytes = geometry
    return SetAssociativeCache(sets=sets, ways=ways, line_bytes=line_bytes, name=name)


@st.composite
def _streams(draw, geometry):
    """Addresses with repeats; ``fits`` keeps every set within its ways,
    so the batch kernel runs instead of the per-address fallback."""
    sets, ways, line_bytes = geometry
    if draw(st.booleans(), label="fits"):
        pool = [
            (tag * sets + index) * line_bytes + offset
            for index in range(sets)
            for tag in draw(st.lists(st.integers(0, 5), max_size=ways, unique=True))
            for offset in (0, line_bytes - 1)
        ]
        if not pool:
            return []
        return draw(st.lists(st.sampled_from(pool), max_size=40))
    limit = sets * (ways + 2) * line_bytes
    return draw(st.lists(st.integers(0, limit - 1), max_size=40))


def _warm(data, *caches: SetAssociativeCache) -> None:
    """Drive identically-shaped ``caches`` through one random history."""
    sets, ways, line_bytes = caches[0].sets, caches[0].ways, caches[0].line_bytes
    limit = sets * (ways + 3) * line_bytes
    for addr in data.draw(st.lists(st.integers(0, limit - 1), max_size=30), label="warm"):
        for cache in caches:
            cache.access(addr)


def _assert_same_state(batched: SetAssociativeCache, looped: SetAssociativeCache) -> None:
    assert batched.stats == looped.stats
    for index in range(looped.sets):
        assert batched.lru_stack(index) == looped.lru_stack(index)
        assert all(type(line) is int for line in batched.lru_stack(index))


def _over_subscribed(cache: SetAssociativeCache, addrs) -> bool:
    lines_per_set: dict[int, set[int]] = {}
    for addr in addrs:
        lines_per_set.setdefault(cache.set_index(addr), set()).add(cache.line_addr(addr))
    return any(len(lines) > cache.ways for lines in lines_per_set.values())


class TestBatchKernels:
    @settings(max_examples=300)
    @given(geometry=_geometries, data=st.data())
    def test_access_many_equals_access_loop(self, geometry, data):
        batched, looped = _cache(geometry), _cache(geometry)
        _warm(data, batched, looped)
        for _ in range(data.draw(st.integers(1, 3), label="batches")):
            addrs = data.draw(_streams(geometry), label="addrs")
            hits = batched.access_many(addrs)
            assert isinstance(hits, np.ndarray) and hits.dtype == bool
            assert hits.tolist() == [looped.access(addr) for addr in addrs]
            _assert_same_state(batched, looped)

    @settings(max_examples=200)
    @given(geometries=st.tuples(_geometries, _geometries, _geometries), data=st.data())
    def test_load_many_equals_load_loop(self, geometries, data):
        batched, looped = MemoryHierarchy(), MemoryHierarchy()
        for mem in (batched, looped):
            mem.l1, mem.l2, mem.llc = (
                _cache(geometry, name) for geometry, name in zip(geometries, ("L1", "L2", "LLC"))
            )
        for level in ("l1", "l2", "llc"):
            _warm(data, getattr(batched, level), getattr(looped, level))
        for _ in range(data.draw(st.integers(1, 3), label="batches")):
            addrs = data.draw(_streams(geometries[0]), label="addrs")
            latencies = batched.load_many(addrs)
            assert latencies.tolist() == [looped.load(addr).latency for addr in addrs]
            for level in ("l1", "l2", "llc"):
                _assert_same_state(getattr(batched, level), getattr(looped, level))

    @settings(max_examples=200)
    @given(geometry=_geometries, data=st.data())
    def test_all_hit_batches_equal_access_loop(self, geometry, data):
        """Batches drawn only from resident lines take the all-hit path."""
        batched, looped = _cache(geometry), _cache(geometry)
        _warm(data, batched, looped)
        line_bytes = looped.line_bytes
        for _ in range(data.draw(st.integers(1, 3), label="batches")):
            resident = [
                line + offset
                for index in range(looped.sets)
                for line in looped.lru_stack(index)
                for offset in (0, line_bytes - 1)
            ]
            assume(resident)
            addrs = data.draw(st.lists(st.sampled_from(resident), max_size=40), label="addrs")
            hits = batched.access_many(addrs)
            assert hits.all()
            assert hits.tolist() == [looped.access(addr) for addr in addrs]
            _assert_same_state(batched, looped)

    def test_all_hit_batch_never_falls_back(self, monkeypatch):
        """Every distinct line resident: only MRU moves, in last-occurrence
        order, and no access() per address."""
        cache = SetAssociativeCache(sets=4, ways=2, line_bytes=64)
        for addr in (0x000, 0x100, 0x040, 0x140):
            cache.access(addr)
        before = cache.stats.snapshot()
        monkeypatch.setattr(cache, "access", lambda addr: pytest.fail("fell back"))
        # The kernel's stable sort is not reached either.
        monkeypatch.setattr(np, "argsort", lambda *a, **k: pytest.fail("ran the kernel"))
        addrs = [0x000, 0x140, 0x100, 0x000, 0x040, 0x17F]
        assert cache.access_many(addrs).tolist() == [True] * len(addrs)
        assert cache.lru_stack(0) == [0x100, 0x000]
        assert cache.lru_stack(1) == [0x040, 0x140]
        assert cache.stats.delta(before) == CacheStats(hits=len(addrs))

    def test_far_apart_all_hit_batch_equals_access_loop(self):
        """Far-apart resident lines (line numbers 0 and 1024 share one
        residency-proof slot) are looked up in the sets, pass as an
        all-hit batch and are deferred; settled, they match the loop."""
        batched, looped = (SetAssociativeCache(sets=4, ways=2, line_bytes=64) for _ in range(2))
        for cache in (batched, looped):
            for addr in (0x000, 0x10000):
                cache.access(addr)
        addrs = [0x000, 0x10000, 0x03F]
        hits = batched.access_many(addrs)
        assert hits.tolist() == [looped.access(addr) for addr in addrs] == [True] * 3
        assert batched.lru_stack(0) == [0x10000, 0x000]
        _assert_same_state(batched, looped)

    def test_one_miss_batch_equals_access_loop(self):
        """One non-resident line among resident ones: the batch is not
        all-hit, and the kernel still matches the per-address loop."""
        batched, looped = (SetAssociativeCache(sets=4, ways=2, line_bytes=64) for _ in range(2))
        for cache in (batched, looped):
            for addr in (0x000, 0x100, 0x040):
                cache.access(addr)
        addrs = [0x000, 0x140, 0x100, 0x000, 0x040, 0x17F]
        assert not _over_subscribed(batched, addrs)
        hits = batched.access_many(addrs)
        assert hits.tolist() == [looped.access(addr) for addr in addrs]
        assert hits.tolist() == [True, False, True, True, True, True]
        _assert_same_state(batched, looped)

    def test_empty_batch_changes_nothing(self):
        cache = SetAssociativeCache(sets=4, ways=2, line_bytes=64)
        cache.access(0x40)
        before = (cache.stats.snapshot(), cache.lru_stack(1))
        assert cache.access_many([]).tolist() == []
        assert (cache.stats, cache.lru_stack(1)) == before
        assert MemoryHierarchy().load_many([]).tolist() == []

    def test_fitting_batch_never_falls_back(self, monkeypatch):
        """No set over-subscribed: the kernel path, not access() per address."""
        cache = SetAssociativeCache(sets=4, ways=2, line_bytes=64)
        addrs = [0x000, 0x100, 0x040, 0x000, 0x140, 0x100, 0x040]
        assert not _over_subscribed(cache, addrs)
        monkeypatch.setattr(cache, "access", lambda addr: pytest.fail("fell back"))
        assert cache.access_many(addrs).tolist() == [False, False, False, True, False, True, True]
        assert cache.lru_stack(0) == [0x000, 0x100]
        assert cache.lru_stack(1) == [0x140, 0x040]

    def test_over_subscribed_batch_falls_back(self):
        cache = SetAssociativeCache(sets=4, ways=2, line_bytes=64)
        addrs = [0x000, 0x100, 0x200, 0x000]
        assert _over_subscribed(cache, addrs)
        calls = []
        access = cache.access
        cache.access = lambda addr: calls.append(addr) or access(addr)
        assert cache.access_many(addrs).tolist() == [False, False, False, False]
        assert calls == addrs
        assert cache.lru_stack(0) == [0x200, 0x000]


class _ReferenceCache:
    """Per-address true-LRU model: each set a list, LRU-oldest first."""

    def __init__(self, sets: int, ways: int, line_bytes: int) -> None:
        self.sets, self.ways, self.line_bytes = sets, ways, line_bytes
        self.data: list[list[int]] = [[] for _ in range(sets)]
        self.stats = CacheStats()

    def _locate(self, addr: int) -> tuple[list[int], int]:
        line = addr - addr % self.line_bytes
        return self.data[(addr // self.line_bytes) % self.sets], line

    def access(self, addr: int) -> bool:
        entry_set, line = self._locate(addr)
        if line in entry_set:
            entry_set.remove(line)
            entry_set.append(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(entry_set) >= self.ways:
            entry_set.pop(0)
            self.stats.evictions += 1
        entry_set.append(line)
        return False

    def probe(self, addr: int) -> bool:
        entry_set, line = self._locate(addr)
        return line in entry_set

    def flush_line(self, addr: int) -> bool:
        entry_set, line = self._locate(addr)
        if line not in entry_set:
            return False
        entry_set.remove(line)
        self.stats.flushes += 1
        return True

    def flush_all(self) -> None:
        for entry_set in self.data:
            entry_set.clear()
        self.stats.flushes += 1


class TestDeferredMoves:
    """All-hit batches defer their MRU moves to a backlog; everything that
    reads or changes LRU order must see them applied, in order."""

    @settings(max_examples=300)
    @given(
        geometry=st.tuples(st.sampled_from([1, 2, 4]), st.integers(1, 4), st.sampled_from([1, 16])),
        data=st.data(),
    )
    def test_op_sequences_equal_reference(self, geometry, data):
        """Random op mixes check each op's result, and every line's
        residency, on the spot; LRU order and stats are compared only at
        the end, so deferred moves stay deferred across the sequence.
        Every address comes from a few lines, so lines are proven
        resident, then evicted or flushed, then batched again; negative
        line numbers, too, must never match an empty proof slot."""
        cache, reference = _cache(geometry), _ReferenceCache(*geometry)
        sets, ways, line_bytes = geometry
        lines = data.draw(
            st.lists(
                st.integers(-sets, sets * (ways + 2) - 1), min_size=1, max_size=2 * sets * ways
            ),
            label="lines",
        )
        pool = st.builds(
            lambda line, offset: line * line_bytes + offset,
            st.sampled_from(lines),
            st.sampled_from([0, line_bytes - 1]),
        )
        # A batch of at most ``ways`` addresses never over-subscribes a
        # set, so it takes the kernel unless its lines are all resident.
        batches = {
            "batch": st.lists(pool, max_size=40),
            "fitting": st.lists(pool, min_size=1, max_size=ways),
        }
        ops = st.sampled_from(
            ["all-hit", "all-hit", "absent", *batches, "access", "probe", "flush_line", "flush_all"]
        )
        for op in data.draw(st.lists(ops, min_size=12, max_size=40), label="ops"):
            if op == "all-hit":
                resident = [line for entry_set in reference.data for line in entry_set]
                if not resident:
                    continue
                addrs = data.draw(
                    st.lists(st.sampled_from(resident), min_size=1, max_size=40), label="resident"
                )
                assert cache.access_many(addrs).tolist() == [True] * len(addrs)
                for addr in addrs:
                    reference.access(addr)
            elif op == "absent":
                # A line evicted or flushed after it was proven resident
                # must miss again.
                absent = [line * line_bytes for line in lines]
                absent = [addr for addr in absent if not reference.probe(addr)]
                if not absent:
                    continue
                addr = data.draw(st.sampled_from(absent), label="absent")
                assert cache.access_many([addr]).tolist() == [reference.access(addr)] == [False]
            elif op in batches:
                addrs = data.draw(batches[op], label=op)
                hits = cache.access_many(addrs).tolist()
                assert hits == [reference.access(addr) for addr in addrs]
            elif op == "flush_all":
                cache.flush_all()
                reference.flush_all()
            else:
                addr = data.draw(pool, label="addr")
                assert getattr(cache, op)(addr) == getattr(reference, op)(addr)
            for line in lines:
                assert cache.probe(line * line_bytes) == reference.probe(line * line_bytes)
            for index in range(sets):
                assert cache.occupancy(index) == len(reference.data[index])
        assert cache.stats == reference.stats
        for index in range(sets):
            assert cache.lru_stack(index) == reference.data[index]

    def test_backlog_stays_bounded(self):
        """10,000 all-hit batches never hold more deferred accesses than
        the bound, and the bound is tied to the geometry."""
        cache = l1i_cache()
        limit = SetAssociativeCache.BACKLOG_PER_LINE * cache.sets * cache.ways
        rng = np.random.default_rng(0)
        base = 0x40_0000
        for line in range(96):
            cache.access(base + line * 64)
        for _ in range(10_000):
            addrs = base + rng.integers(0, 96, size=650) * 64
            assert cache.access_many(addrs).all()
            assert sum(map(len, cache._backlog)) == cache._backlog_size <= limit
        assert cache.stats == CacheStats(hits=6_500_000, misses=96)
