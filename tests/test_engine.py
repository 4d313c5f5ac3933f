"""Tests for the frontend execution engine: path selection, steady-state
extrapolation, inclusivity, and the cache-stealthiness property."""

from __future__ import annotations

import pytest

from repro.caches.sa_cache import SetAssociativeCache
from repro.errors import ExecutionError
from repro.frontend.engine import FrontendEngine
from repro.frontend.params import FrontendParams
from repro.frontend.paths import DeliveryPath
from repro.isa.blocks import lcp_block
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram


@pytest.fixture
def layout() -> BlockChainLayout:
    return BlockChainLayout()


def make_engine(lsd_enabled: bool = True, l1i: bool = False) -> FrontendEngine:
    cache = SetAssociativeCache(64, 8, 64, "L1I") if l1i else None
    return FrontendEngine(FrontendParams(), lsd_enabled=lsd_enabled, l1i=cache)


class TestPathSelection:
    def test_small_loop_settles_in_lsd(self, layout):
        engine = make_engine()
        report = engine.run_loop(LoopProgram(layout.chain(3, 8), 100))
        assert report.dominant_path() is DeliveryPath.LSD
        assert report.uops_mite == 40  # first iteration cold fill only

    def test_small_loop_settles_in_dsb_without_lsd(self, layout):
        engine = make_engine(lsd_enabled=False)
        report = engine.run_loop(LoopProgram(layout.chain(3, 8), 100))
        assert report.dominant_path() is DeliveryPath.DSB
        assert report.uops_lsd == 0

    def test_nine_blocks_thrash_to_mite(self, layout):
        """Section III-B: 9 same-set blocks overflow 8 ways."""
        engine = make_engine()
        report = engine.run_loop(LoopProgram(layout.chain(3, 9), 100))
        assert report.dominant_path() is DeliveryPath.MITE
        assert report.dsb_evictions > 50

    def test_eight_blocks_no_evictions(self, layout):
        engine = make_engine()
        report = engine.run_loop(LoopProgram(layout.chain(3, 8), 100))
        assert report.dsb_evictions == 0

    def test_medium_loop_dsb_even_with_lsd(self, layout):
        """Over-LSD-capacity loops fall back to the DSB (Figure 3)."""
        engine = make_engine()
        blocks = layout.chain(3, 7) + layout.chain(9, 7, first_slot=20)
        report = engine.run_loop(LoopProgram(blocks, 100))
        assert report.dominant_path() is DeliveryPath.DSB

    def test_misaligned_four_blocks_denied_lsd(self, layout):
        """4 misaligned same-set blocks defeat the LSD (Section III-C)."""
        engine = make_engine()
        report = engine.run_loop(LoopProgram(layout.chain(3, 4, misaligned=True), 100))
        assert report.uops_lsd == 0
        assert report.dominant_path() is DeliveryPath.DSB

    def test_timing_order_dsb_lsd_mite(self, layout):
        """Calibrated latency ordering (Figure 4): DSB < LSD < MITE+DSB."""
        lsd_engine = make_engine()
        lsd = lsd_engine.run_loop(LoopProgram(layout.chain(3, 8), 200))
        dsb_engine = make_engine(lsd_enabled=False)
        dsb = dsb_engine.run_loop(LoopProgram(layout.chain(3, 8), 200))
        mite_engine = make_engine()
        mite = mite_engine.run_loop(LoopProgram(layout.chain(3, 9), 200))
        per_uop = lambda r: r.cycles / r.total_uops
        assert per_uop(dsb) < per_uop(lsd) < per_uop(mite)

    def test_energy_order_lsd_dsb_mite(self, layout):
        """Core energy ordering (Figure 12): LSD < DSB < MITE."""
        lsd_engine = make_engine()
        lsd = lsd_engine.run_loop(LoopProgram(layout.chain(3, 8), 200))
        dsb_engine = make_engine(lsd_enabled=False)
        dsb = dsb_engine.run_loop(LoopProgram(layout.chain(3, 8), 200))
        mite_engine = make_engine()
        mite = mite_engine.run_loop(LoopProgram(layout.chain(3, 9), 200))
        per_uop = lambda r: r.energy_nj / r.total_uops
        assert per_uop(lsd) < per_uop(dsb) < per_uop(mite)


class TestSteadyStateExtrapolation:
    def test_matches_exact_simulation(self, layout):
        program = LoopProgram(layout.chain(3, 8), 500)
        exact = make_engine().run_loop(program, exact=True)
        fast = make_engine().run_loop(program)
        assert fast.cycles == pytest.approx(exact.cycles, rel=1e-9)
        assert fast.uops_lsd == exact.uops_lsd
        assert fast.uops_mite == exact.uops_mite

    def test_matches_exact_for_thrash(self, layout):
        program = LoopProgram(layout.chain(3, 9), 300)
        exact = make_engine().run_loop(program, exact=True)
        fast = make_engine().run_loop(program)
        assert fast.cycles == pytest.approx(exact.cycles, rel=1e-9)
        assert fast.uops_mite == exact.uops_mite

    def test_simulated_iterations_bounded(self, layout):
        report = make_engine().run_loop(LoopProgram(layout.chain(3, 8), 10**6))
        assert report.simulated_iterations <= FrontendEngine.MAX_SIMULATED
        assert report.iterations == 10**6

    def test_report_ipc(self, layout):
        report = make_engine().run_loop(LoopProgram(layout.chain(3, 8), 100))
        assert 0 < report.ipc <= 4.0


class TestCacheStealth:
    """The headline property: frontend attacks leave no L1I misses."""

    def test_thrash_causes_no_l1i_misses_after_warmup(self, layout):
        engine = make_engine(l1i=True)
        program = LoopProgram(layout.chain(3, 9), 50)
        engine.run_loop(program, exact=True)  # warm up (cold fills)
        misses_before = engine.l1i.stats.misses
        engine.run_loop(program, exact=True)
        assert engine.l1i.stats.misses == misses_before

    def test_dsb_hits_never_touch_l1i(self, layout):
        engine = make_engine(lsd_enabled=False, l1i=True)
        program = LoopProgram(layout.chain(3, 8), 50)
        engine.run_loop(program, exact=True)
        accesses_before = engine.l1i.stats.accesses
        engine.run_loop(program, exact=True)  # pure DSB hits
        assert engine.l1i.stats.accesses == accesses_before


class TestLcpWindows:
    def test_mixed_issue_more_switches_than_ordered(self):
        """Figure 6: same uops, different switch counts."""
        engine = make_engine()
        mixed = engine.run_loop(LoopProgram([lcp_block(0, 16, mixed=True)], 100))
        engine2 = make_engine()
        ordered = engine2.run_loop(LoopProgram([lcp_block(0x2000, 16, mixed=False)], 100))
        assert mixed.total_uops == ordered.total_uops
        assert mixed.switches_to_mite > ordered.switches_to_mite * 3
        assert mixed.cycles > ordered.cycles
        assert mixed.ipc < ordered.ipc

    def test_similar_mite_dsb_uop_split(self):
        """Figure 6: both encodings deliver similar uops from each path."""
        engine = make_engine()
        mixed = engine.run_loop(LoopProgram([lcp_block(0, 16, mixed=True)], 100))
        engine2 = make_engine()
        ordered = engine2.run_loop(LoopProgram([lcp_block(0x2000, 16, mixed=False)], 100))
        assert mixed.lcp_stalls == ordered.lcp_stalls
        # LCP uops always come from MITE in both encodings.
        assert mixed.uops_mite >= 16 * 100
        assert ordered.uops_mite >= 16 * 100


class TestThreadManagement:
    def test_unknown_thread_rejected(self, layout):
        engine = FrontendEngine(n_threads=1)
        with pytest.raises(ExecutionError):
            engine.run_iteration(LoopProgram(layout.chain(3, 1), 1), thread=1)

    def test_invalid_thread_count(self):
        with pytest.raises(ExecutionError):
            FrontendEngine(n_threads=3)

    def test_reset_thread_clears_state(self, layout):
        engine = make_engine()
        program = LoopProgram(layout.chain(3, 8), 50)
        first = engine.run_loop(program)
        engine.reset_thread(0)
        again = engine.run_loop(program)
        # Cold state reproduced: same MITE fill cost as the first run.
        assert again.uops_mite == first.uops_mite

    def test_eviction_flush_penalises_victim(self, layout):
        """DSB eviction of a streaming loop's window charges the LSD
        flush penalty to the victim's next iteration."""
        engine = make_engine()
        loop = LoopProgram(layout.chain(3, 8), 10)
        engine.run_loop(loop, exact=True)  # leaves DSB warm; LSD flushed at exit
        # Re-enter and stream.
        for _ in range(4):
            engine.run_iteration(loop, 0)
        assert engine.lsds[0].is_streaming(loop)
        # Thrash the set from the same thread: evictions flush the LSD.
        intruder = LoopProgram(layout.chain(3, 9, first_slot=50), 1)
        engine.run_iteration(intruder, 0)
        assert not engine.lsds[0].is_streaming(loop)


class TestWindowCacheAliasing:
    def test_different_bodies_same_addresses_do_not_alias(self):
        """Regression: two programs at the same base address must not
        share cached window decompositions (found by `repro validate`)."""
        from repro.frontend.engine import FrontendEngine
        from repro.isa.blocks import filler_block
        from repro.isa.program import LoopProgram

        engine = FrontendEngine()
        small = LoopProgram([filler_block(0x400000, 400)], 50)
        engine.run_loop(small, exact=True)
        engine.reset_thread(0)
        big = LoopProgram([filler_block(0x400000, 4000)], 50)
        report = engine.run_loop(big, exact=True)
        assert report.total_uops == 4000 * 50  # not the 400-uop layout
