"""Tests for the Decoded Stream Buffer model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.frontend.dsb import DecodedStreamBuffer
from repro.frontend.params import FrontendParams


@pytest.fixture
def dsb() -> DecodedStreamBuffer:
    return DecodedStreamBuffer(FrontendParams())


def window(dsb_set: int, slot: int = 0) -> int:
    """A window address mapping to the given DSB set."""
    return 0x400000 + slot * 1024 + dsb_set * 32


class TestIndexing:
    def test_single_thread_uses_addr_9_5(self, dsb):
        assert dsb.effective_index(window(0), smt_active=False) == 0
        assert dsb.effective_index(window(17), smt_active=False) == 17
        assert dsb.effective_index(window(31), smt_active=False) == 31

    def test_smt_folds_mod_16(self, dsb):
        """Figure 2: with two threads, sets 16 apart collide."""
        assert dsb.effective_index(window(1), smt_active=True) == 1
        assert dsb.effective_index(window(17), smt_active=True) == 1
        assert dsb.effective_index(window(17), smt_active=False) == 17

    def test_rejects_unaligned_address(self, dsb):
        with pytest.raises(ConfigurationError):
            dsb.effective_index(0x400010, smt_active=False)


class TestWaysForUops:
    def test_one_way_up_to_six(self, dsb):
        assert dsb.ways_for_uops(1) == 1
        assert dsb.ways_for_uops(6) == 1

    def test_two_and_three_ways(self, dsb):
        assert dsb.ways_for_uops(7) == 2
        assert dsb.ways_for_uops(12) == 2
        assert dsb.ways_for_uops(18) == 3

    def test_uncacheable_beyond_three_ways(self, dsb):
        assert dsb.ways_for_uops(19) == 0

    def test_rejects_nonpositive(self, dsb):
        with pytest.raises(ConfigurationError):
            dsb.ways_for_uops(0)


class TestCacheBehaviour:
    def test_miss_then_hit(self, dsb):
        assert not dsb.lookup(0, window(3), False)
        dsb.insert(0, window(3), 5, False)
        assert dsb.lookup(0, window(3), False)

    def test_thread_tagged_no_cross_thread_hits(self, dsb):
        dsb.insert(0, window(3), 5, False)
        assert not dsb.lookup(1, window(3), False)

    def test_lru_eviction_order(self, dsb):
        for slot in range(8):
            dsb.insert(0, window(3, slot), 5, False)
        dsb.lookup(0, window(3, 0), False)  # refresh slot 0 to MRU
        evicted = dsb.insert(0, window(3, 8), 5, False)
        assert evicted == [(0, window(3, 1))]  # slot 1 was LRU

    def test_nine_lines_evict_exactly_one(self, dsb):
        """The eviction channel's overflow-by-one (Section III-B)."""
        for slot in range(9):
            dsb.insert(0, window(3, slot), 5, False)
        assert dsb.occupancy() == 8

    def test_multi_way_window_eviction(self, dsb):
        for slot in range(8):
            dsb.insert(0, window(3, slot), 5, False)
        evicted = dsb.insert(0, window(3, 8), 12, False)  # needs 2 ways
        assert len(evicted) == 2

    def test_cross_thread_eviction_in_smt_mode(self, dsb):
        """Both threads' same-set lines compete when SMT-active."""
        for slot in range(8):
            dsb.insert(0, window(3, slot), 5, True)
        evicted = dsb.insert(1, window(3, 100), 5, True)
        assert evicted and evicted[0][0] == 0  # victim belongs to thread 0

    def test_insert_returns_victims_in_lru_order(self, dsb):
        for slot in range(8):
            dsb.insert(0, window(3, slot), 5, False)
        dsb.lookup(0, window(3, 0), False)  # slot 0 becomes most recent
        evicted = dsb.insert(0, window(3, 8), 18, False)  # needs 3 ways
        assert evicted == [(0, window(3, slot)) for slot in (1, 2, 3)]

    def test_insert_existing_refreshes_without_eviction(self, dsb):
        dsb.insert(0, window(3), 5, False)
        assert dsb.insert(0, window(3), 5, False) == []
        assert dsb.occupancy() == 1

    def test_uncacheable_window_ignored(self, dsb):
        assert dsb.insert(0, window(3), 25, False) == []
        assert dsb.occupancy() == 0
        assert dsb.stats.uncacheable_lookups == 1


class TestMaintenance:
    def test_invalidate(self, dsb):
        dsb.insert(0, window(3), 5, False)
        assert dsb.invalidate(0, window(3))
        assert not dsb.resident(0, window(3), False)
        assert not dsb.invalidate(0, window(3))

    def test_flush_thread(self, dsb):
        dsb.insert(0, window(3), 5, False)
        dsb.insert(1, window(4), 5, False)
        assert dsb.flush_thread(0) == 1
        assert dsb.resident(1, window(4), False)

    def test_flush_all(self, dsb):
        dsb.insert(0, window(3), 5, False)
        dsb.flush()
        assert dsb.occupancy() == 0

    def test_resident_does_not_touch_lru(self, dsb):
        for slot in range(8):
            dsb.insert(0, window(3, slot), 5, False)
        dsb.resident(0, window(3, 0), False)  # must NOT refresh
        evicted = dsb.insert(0, window(3, 8), 5, False)
        assert evicted == [(0, window(3, 0))]

    def test_resident_windows(self, dsb):
        dsb.insert(0, window(3), 5, False)
        dsb.insert(0, window(4), 5, False)
        assert dsb.resident_windows(0) == {window(3), window(4)}

    def test_stats_delta(self, dsb):
        dsb.lookup(0, window(3), False)
        snap = dsb.stats.snapshot()
        dsb.insert(0, window(3), 5, False)
        dsb.lookup(0, window(3), False)
        delta = dsb.stats.delta(snap)
        assert delta.hits == 1
        assert delta.insertions == 1
        assert delta.misses == 0
