"""Unit tests for the individual Spectre channel backends."""

from __future__ import annotations

import pytest

from repro.errors import SpectreError
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.spectre.channels import (
    BG_CODE_LINES,
    BG_DATA_ACCESSES,
    BG_DATA_LINES,
    BG_INST_FETCHES,
    FrontendDsbChannel,
    L1dFlushReload,
    L1dLruChannel,
    L1iFlushReload,
    L1iPrimeProbe,
    MemFlushReload,
)


def machine(seed: int = 31) -> Machine:
    return Machine(GOLD_6226, seed=seed)


class TestProbeAddressing:
    def test_probe_values_map_to_distinct_l1_sets(self):
        channel = MemFlushReload(machine())
        sets = {
            channel.hierarchy.l1.set_index(channel.probe_data_addr(v))
            for v in range(32)
        }
        assert len(sets) == 32

    def test_probe_values_map_to_distinct_pages(self):
        channel = MemFlushReload(machine())
        pages = {channel.probe_data_addr(v) // 4096 for v in range(32)}
        assert len(pages) == 32

    def test_eviction_addrs_share_probe_set(self):
        channel = L1dFlushReload(machine())
        l1 = channel.hierarchy.l1
        for value in (0, 7, 31):
            probe_set = l1.set_index(channel.probe_data_addr(value))
            for way in range(channel.EVICTION_WAYS):
                assert l1.set_index(channel._eviction_addr(value, way)) == probe_set

    def test_code_and_data_probes_disjoint(self):
        channel = L1iFlushReload(machine())
        data = {channel.probe_data_addr(v) for v in range(32)}
        code = {channel.probe_code_addr(v) for v in range(32)}
        assert not data & code


class TestPerChannelRoundtrip:
    @pytest.mark.parametrize(
        "cls", [MemFlushReload, L1dFlushReload, L1dLruChannel, L1iFlushReload,
                FrontendDsbChannel]
    )
    def test_prepare_touch_recover(self, cls):
        channel = cls(machine())
        for value in (0, 5, channel.n_values - 1):
            channel.prepare()
            channel.touch(value, transient=True)
            assert channel.recover() == value

    def test_prime_probe_needs_full_sets(self):
        """P+P only signals when prime + ambient occupancy fills the set;
        its default PRIME_WAYS=6 assumes background code lines (the
        attack context).  Standalone, priming all 8 ways restores the
        overflow-by-one signal."""
        silent = L1iPrimeProbe(machine())
        silent.prepare()
        silent.touch(5, transient=True)
        assert silent.recover() == 0  # no evictions, no information

        full = L1iPrimeProbe(machine())
        full.PRIME_WAYS = 8  # instance override
        for value in (0, 5, 31):
            full.prepare()
            full.touch(value, transient=True)
            assert full.recover() == value

    def test_value_range_check(self):
        channel = L1dLruChannel(machine())
        with pytest.raises(SpectreError):
            channel.touch(32, transient=True)
        mem = MemFlushReload(machine())
        mem.touch(255, transient=True)  # byte chunks allow 0..255
        with pytest.raises(SpectreError):
            mem.touch(256, transient=True)


class TestCycleAccounting:
    @pytest.mark.parametrize(
        "cls", [MemFlushReload, L1dFlushReload, L1iFlushReload, FrontendDsbChannel]
    )
    def test_operations_accumulate_cycles(self, cls):
        channel = cls(machine())
        start = channel.cycles
        channel.prepare()
        after_prepare = channel.cycles
        channel.touch(3, transient=True)
        channel.recover()
        channel.background()
        assert after_prepare > start
        assert channel.cycles > after_prepare

    def test_background_accounts_both_sides(self):
        channel = MemFlushReload(machine())
        before = channel.cycles
        channel.background()
        # 220 data + 650 ifetch accesses, each at least 1 cycle.
        assert channel.cycles - before >= 870

    def test_background_matches_the_per_access_loop(self):
        """Batched background work leaves the same RNG stream, cache state,
        stats and cycle count as one load/fetch at a time.  From this
        fractional starting count, adding each batch's pre-summed cost
        rounds differently from the per-access ``+=``."""
        batched, looped = L1iPrimeProbe(machine()), L1iPrimeProbe(machine())
        for channel in (batched, looped):
            channel.prepare()
            channel.cycles = 100 + 1 / 3
        batched.background(calls=3)
        _background_per_access(looped, calls=3)
        _assert_same_background(batched, looped)

    def test_frontend_background_matches_the_per_access_loop(self):
        """The same for the frontend channel, whose background batches all
        hit once its working sets are warm: no batch misses at any level."""
        batched, looped = FrontendDsbChannel(machine()), FrontendDsbChannel(machine())
        for channel in (batched, looped):
            channel.prepare()
        batched.background(calls=4)
        _background_per_access(looped, calls=4)
        _assert_same_background(batched, looped)
        for channel in (batched, looped):
            channel.cycles = 100 + 1 / 3
        misses = batched.miss_counts().misses
        batched.background(calls=3)
        _background_per_access(looped, calls=3)
        assert batched.miss_counts().misses == misses
        _assert_same_background(batched, looped)


def _background_per_access(channel, calls: int) -> None:
    """``channel.background(calls)``, one load or fetch at a time."""
    for _ in range(calls):
        data = channel._rng.integers(0, BG_DATA_LINES, size=BG_DATA_ACCESSES)
        for index in data:
            channel._load(channel._data_base + int(index) * 64)
        code = channel._rng.integers(0, BG_CODE_LINES, size=BG_INST_FETCHES)
        for index in code:
            channel._ifetch(channel._code_base + int(index) * 64)


def _assert_same_background(batched, looped) -> None:
    assert batched.cycles.hex() == looped.cycles.hex()
    assert batched._rng.integers(1 << 30) == looped._rng.integers(1 << 30)
    for name in ("l1", "l2", "llc"):
        ours, theirs = getattr(batched.hierarchy, name), getattr(looped.hierarchy, name)
        assert ours.stats == theirs.stats
        assert [ours.lru_stack(i) for i in range(ours.sets)] == [
            theirs.lru_stack(i) for i in range(theirs.sets)
        ]
    assert batched.l1i.stats == looped.l1i.stats
    assert [batched.l1i.lru_stack(i) for i in range(64)] == [
        looped.l1i.lru_stack(i) for i in range(64)
    ]


class TestMissCounts:
    def test_delta(self):
        channel = L1iFlushReload(machine())
        channel.background(2)
        snapshot = channel.miss_counts()
        channel.background(1)
        delta = channel.miss_counts().delta(snapshot)
        assert delta.accesses == 870  # one background call

    def test_miss_rate_zero_denominator(self):
        from repro.spectre.channels import MissCounts

        assert MissCounts(accesses=0, misses=0).miss_rate == 0.0

    def test_frontend_channel_includes_machine_l1i(self):
        mach = machine()
        channel = FrontendDsbChannel(mach)
        before = channel.miss_counts()
        channel.prepare()  # runs on the machine core -> its L1I counts
        after = channel.miss_counts()
        assert after.accesses > before.accesses


class TestLruChannelMechanics:
    def test_touched_way_survives_conflict(self):
        channel = L1dLruChannel(machine())
        channel.prepare()
        channel.touch(9, transient=True)
        recovered = channel.recover()
        assert recovered == 9
        # In the touched set, way 0 survived (it was MRU at insert time).
        assert channel.hierarchy.l1.probe(channel._primed_addr(9, 0))
