"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bits import pack_chunks, unpack_chunks
from repro.analysis.wagner_fischer import edit_distance
from repro.backend.ports import PortModel
from repro.caches.sa_cache import SetAssociativeCache
from repro.frontend.dsb import DecodedStreamBuffer
from repro.frontend.params import FrontendParams
from repro.isa.blocks import standard_mix_block
from repro.isa.layout import BlockChainLayout
from repro.isa.uops import Uop, UopKind

bitstrings = st.text(alphabet="01", max_size=24)

#: DSB operation mix: fills outnumber the whole-thread and whole-DSB
#: flushes, so sets fill up and evict between flushes.
DSB_OPERATIONS = (
    ("insert",) * 8
    + ("insert_at",) * 8
    + ("lookup",) * 4
    + ("invalidate",) * 4
    + ("flush_thread", "flush")
)


class TestEditDistanceMetric:
    """Wagner–Fischer must satisfy the metric axioms."""

    @given(bitstrings)
    def test_identity(self, s):
        assert edit_distance(s, s) == 0

    @given(bitstrings, bitstrings)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(bitstrings, bitstrings)
    def test_positivity(self, a, b):
        d = edit_distance(a, b)
        assert d >= 0
        assert (d == 0) == (a == b)

    @given(bitstrings, bitstrings, bitstrings)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(bitstrings, bitstrings)
    def test_bounded_by_longer_string(self, a, b):
        assert edit_distance(a, b) <= max(len(a), len(b))

    @given(bitstrings, bitstrings)
    def test_at_least_length_difference(self, a, b):
        assert edit_distance(a, b) >= abs(len(a) - len(b))


class TestChunkRoundtrip:
    @given(st.binary(min_size=1, max_size=32), st.integers(min_value=1, max_value=16))
    def test_pack_unpack_roundtrip(self, data, chunk_bits):
        chunks = pack_chunks(data, chunk_bits)
        assert unpack_chunks(chunks, len(data), chunk_bits) == data

    @given(st.binary(min_size=1, max_size=32), st.integers(min_value=1, max_value=16))
    def test_chunks_in_range(self, data, chunk_bits):
        assert all(0 <= c < (1 << chunk_bits) for c in pack_chunks(data, chunk_bits))


class TestCacheInvariants:
    @given(st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_ways(self, addresses):
        cache = SetAssociativeCache(sets=4, ways=2, line_bytes=64)
        for addr in addresses:
            cache.access(addr)
        for index in range(cache.sets):
            assert cache.occupancy(index) <= cache.ways

    @given(st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_immediate_rehit(self, addresses):
        cache = SetAssociativeCache(sets=8, ways=4, line_bytes=64)
        for addr in addresses:
            cache.access(addr)
            assert cache.probe(addr)

    @given(st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_stats_consistency(self, addresses):
        cache = SetAssociativeCache(sets=8, ways=4, line_bytes=64)
        for addr in addresses:
            cache.access(addr)
        stats = cache.stats
        assert stats.hits + stats.misses == len(addresses)
        resident = sum(cache.occupancy(i) for i in range(cache.sets))
        assert stats.misses == resident + stats.evictions


class TestDsbInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),  # thread
                st.integers(min_value=0, max_value=63),  # window slot
                st.booleans(),  # smt_active
            ),
            min_size=1,
            max_size=150,
        )
    )
    @settings(max_examples=50)
    def test_ways_never_exceeded(self, operations):
        dsb = DecodedStreamBuffer(FrontendParams())
        for thread, slot, smt in operations:
            dsb.insert(thread, 0x400000 + slot * 32, 5, smt)
        for index in range(dsb.params.dsb_sets):
            used = sum(line.ways for line in dsb._sets[index].values())
            assert used == dsb._ways[index] <= dsb.params.dsb_ways

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(DSB_OPERATIONS),
                st.integers(min_value=0, max_value=1),  # thread
                # Sets 0/1 and 16/17 fold together in SMT mode; four tags
                # per set make conflicts, evictions and repeat keys common.
                st.sampled_from([0, 1, 16, 17]),  # single-thread set
                st.integers(min_value=0, max_value=3),  # tag
                st.integers(min_value=1, max_value=20),  # uops (> 18: uncacheable)
                st.booleans(),  # smt_active
            ),
            min_size=40,
            max_size=150,
        ),
    )
    @settings(max_examples=60)
    def test_running_way_count_matches_sets(self, operations):
        """``_ways`` equals the ways resident in each set after every
        operation, and already during eviction callbacks."""
        dsb = DecodedStreamBuffer(FrontendParams())

        def check(*_evicted):
            for index, entry_set in enumerate(dsb._sets):
                used = sum(line.ways for line in entry_set.values())
                assert dsb._ways[index] == used <= dsb.params.dsb_ways

        dsb.add_eviction_listener(check)
        for name, thread, dsb_set, tag, uops, smt in operations:
            addr = 0x400000 + tag * 1024 + dsb_set * 32
            if name == "lookup":
                dsb.lookup(thread, addr, smt)
            elif name == "insert":
                dsb.insert(thread, addr, uops, smt)
            elif name == "insert_at":
                index = dsb.effective_index(addr, smt, thread)
                dsb.insert_at(index, (thread, addr), uops, dsb.ways_for_uops(uops))
            elif name == "invalidate":
                dsb.invalidate(thread, addr)
            elif name == "flush_thread":
                dsb.flush_thread(thread)
            else:
                dsb.flush()
            check()
        assert dsb.occupancy() == sum(dsb._ways)

    @given(st.integers(min_value=0, max_value=2**16))
    def test_smt_fold_consistency(self, window_slot):
        """SMT index = single-thread index mod half the sets."""
        dsb = DecodedStreamBuffer(FrontendParams())
        addr = window_slot * 32
        single = dsb.effective_index(addr, smt_active=False)
        folded = dsb.effective_index(addr, smt_active=True)
        assert folded == single % (dsb.params.dsb_sets // 2)


class TestLayoutInvariants:
    @given(
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=1, max_value=16),
        st.booleans(),
    )
    @settings(max_examples=60)
    def test_chain_blocks_map_to_requested_set(self, dsb_set, count, misaligned):
        layout = BlockChainLayout()
        for block in layout.chain(dsb_set, count, misaligned=misaligned):
            assert layout.set_index(block.windows[0]) == dsb_set

    @given(st.integers(min_value=0, max_value=2**20))
    def test_standard_block_always_one_line(self, base_slot):
        block = standard_mix_block(base_slot * 32)
        assert block.fits_one_dsb_line()
        assert 1 <= len(block.windows) <= 2


class TestPortModelInvariants:
    kinds = st.sampled_from(
        [UopKind.ALU, UopKind.MOV, UopKind.BRANCH, UopKind.LOAD, UopKind.STORE_DATA]
    )

    @given(st.lists(kinds, min_size=1, max_size=24))
    @settings(max_examples=60)
    def test_pressure_at_least_uniform_bound(self, kinds):
        uops = [Uop(k) for k in kinds]
        pressure = PortModel().pressure(uops)
        assert pressure.cycles >= len(uops) / 8 - 1e-9

    @given(st.lists(kinds, min_size=1, max_size=24))
    @settings(max_examples=60)
    def test_pressure_monotone_in_uops(self, kinds):
        uops = [Uop(k) for k in kinds]
        more = uops + [Uop(UopKind.ALU)]
        assert PortModel().pressure(more).cycles >= PortModel().pressure(uops).cycles - 1e-9


class TestEngineDeterminism:
    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_run_loop_deterministic(self, blocks, iterations):
        from repro.frontend.engine import FrontendEngine
        from repro.isa.program import LoopProgram

        layout = BlockChainLayout()
        program = LoopProgram(layout.chain(3, blocks), iterations)
        a = FrontendEngine().run_loop(program, exact=True)
        b = FrontendEngine().run_loop(program, exact=True)
        assert a.cycles == b.cycles
        assert a.total_uops == b.total_uops == blocks * 5 * iterations
