"""Tests for DSB-set-targeted chain layout (Figure 5 properties)."""

from __future__ import annotations

import pytest

from repro.errors import LayoutError
from repro.isa.blocks import dsb_set
from repro.isa.layout import MISALIGN_OFFSET, BlockChainLayout


@pytest.fixture
def layout() -> BlockChainLayout:
    return BlockChainLayout(region_base=0x400000)


class TestAddressing:
    def test_period_is_1024(self, layout):
        assert layout.period == 32 * 32

    def test_set_index_bits(self):
        """Set index is addr[9:5] (Section III-A2)."""
        assert dsb_set(0x400000) == 0
        assert dsb_set(0x400020) == 1
        assert dsb_set(0x400000 + 31 * 32) == 31
        assert dsb_set(0x400000 + 32 * 32) == 0  # wraps

    def test_block_address_same_set(self, layout):
        for slot in range(10):
            addr = layout.block_address(dsb_set=5, way_slot=slot)
            assert dsb_set(addr) == 5

    def test_misaligned_offset(self, layout):
        aligned = layout.block_address(3, 0)
        misaligned = layout.block_address(3, 0, misaligned=True)
        assert misaligned - aligned == MISALIGN_OFFSET == 16

    def test_rejects_bad_set(self, layout):
        with pytest.raises(LayoutError):
            layout.block_address(32, 0)
        with pytest.raises(LayoutError):
            layout.block_address(-1, 0)

    def test_rejects_unaligned_region(self):
        with pytest.raises(LayoutError):
            BlockChainLayout(region_base=0x400010)


class TestChains:
    def test_chain_all_same_set(self, layout):
        for block in layout.chain(7, 9):
            assert dsb_set(block.windows[0]) == 7

    def test_chain_distinct_addresses(self, layout):
        bases = [b.base for b in layout.chain(7, 9)]
        assert len(set(bases)) == 9

    def test_first_slot_disjoint(self, layout):
        receiver = layout.chain(3, 6)
        sender = layout.chain(3, 3, first_slot=6)
        assert not {b.base for b in receiver} & {b.base for b in sender}

    def test_misaligned_chain_spans(self, layout):
        for block in layout.chain(3, 4, misaligned=True):
            assert block.spans_windows

    def test_mixed_chain_composition(self, layout):
        blocks = layout.mixed_chain(3, aligned_count=5, misaligned_count=2)
        assert sum(1 for b in blocks if not b.spans_windows) == 5
        assert sum(1 for b in blocks if b.spans_windows) == 2

    def test_mixed_chain_rejects_empty(self, layout):
        with pytest.raises(LayoutError):
            layout.mixed_chain(3, 0, 0)

    def test_sweep_covers_all_sets(self, layout):
        chains = layout.sweep_chains(count_per_set=8)
        assert len(chains) == 32
        for index, chain in enumerate(chains):
            assert all(dsb_set(b.windows[0]) == index for b in chain)

    def test_rejects_empty_chain(self, layout):
        with pytest.raises(LayoutError):
            layout.chain(3, 0)


class TestL1iNonInterference:
    """Figure 5: same-DSB-set chains spread over L1I sets.

    A 1024-byte stride revisits an L1I set every 4 blocks (64 sets x 64
    bytes = 4096 bytes), so even a 9-block chain puts at most 3 blocks
    in any one 8-way L1I set: DSB evictions never imply L1I evictions.
    """

    def test_nine_blocks_at_most_three_per_l1i_set(self, layout):
        l1i_sets: dict[int, int] = {}
        for block in layout.chain(3, 9):
            index = (block.base // 64) % 64
            l1i_sets[index] = l1i_sets.get(index, 0) + 1
        assert max(l1i_sets.values()) <= 3

    def test_chain_never_fills_l1i_ways(self, layout):
        # Even a chain as long as two full DSB sets' worth of ways.
        l1i_sets: dict[int, int] = {}
        for block in layout.chain(3, 16):
            index = (block.base // 64) % 64
            l1i_sets[index] = l1i_sets.get(index, 0) + 1
        assert max(l1i_sets.values()) < 8  # below L1I associativity
