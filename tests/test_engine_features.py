"""Tests for the engine's modelled policies: fill-streak throttling,
uniform delivery, and SMT isolation."""

from __future__ import annotations

import pytest

from repro.frontend.engine import FrontendEngine
from repro.frontend.params import FrontendParams
from repro.frontend.paths import DeliveryPath
from repro.isa.blocks import filler_block
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram


@pytest.fixture
def layout() -> BlockChainLayout:
    return BlockChainLayout()


class TestFillStreakThrottle:
    def test_over_capacity_loop_keeps_dsb_share(self):
        """Figure 3's 4000-uop loop keeps a stable DSB-resident prefix."""
        engine = FrontendEngine()
        program = LoopProgram([filler_block(0x400000, 4000)], 500)
        report = engine.run_loop(program, exact=True)
        share = report.uops_dsb / report.total_uops
        assert 0.05 < share < 0.5

    def test_throttle_disabled_with_huge_limit(self, layout):
        """A large streak limit restores pure-LRU thrash (0% DSB)."""
        params = FrontendParams(mite_fill_streak_limit=10_000)
        engine = FrontendEngine(params)
        program = LoopProgram([filler_block(0x400000, 4000)], 200)
        report = engine.run_loop(program, exact=True)
        assert report.uops_dsb / report.total_uops < 0.02

    def test_attack_bursts_unaffected(self, layout):
        """Overflow-by-one chains (<= N+1 windows) never hit the limit:
        the eviction channel's thrash survives."""
        default = FrontendEngine()
        report = default.run_loop(LoopProgram(layout.chain(3, 9), 100), exact=True)
        no_throttle = FrontendEngine(FrontendParams(mite_fill_streak_limit=10_000))
        baseline = no_throttle.run_loop(
            LoopProgram(layout.chain(3, 9), 100), exact=True
        )
        assert report.cycles == pytest.approx(baseline.cycles)
        assert report.uops_mite == baseline.uops_mite


class TestUniformDelivery:
    def make_engine(self) -> FrontendEngine:
        params = FrontendParams(
            uniform_delivery=True,
            dsb_window_overhead=0.0,
            lsd_window_overhead=0.0,
            dsb_to_mite_penalty=0.0,
            mite_to_dsb_penalty=0.0,
            lsd_flush_penalty=0.0,
            lsd_capture_cost=0.0,
            misalign_dsb_penalty=0.0,
            lcp_stall=0.0,
        )
        return FrontendEngine(params)

    def test_hit_and_miss_iterations_cost_the_same(self, layout):
        engine = self.make_engine()
        program = LoopProgram(layout.chain(3, 8), 1)
        cold = engine.run_iteration(program.with_iterations(1))
        warm = engine.run_iteration(program.with_iterations(1))
        assert warm.cycles == pytest.approx(cold.cycles)

    def test_lsd_streaming_also_padded(self, layout):
        engine = self.make_engine()
        program = LoopProgram(layout.chain(3, 8), 20)
        report = engine.run_loop(program, exact=True)
        per_iteration = report.cycles / report.iterations
        cold = self.make_engine().run_iteration(program.with_iterations(1))
        assert per_iteration == pytest.approx(cold.cycles, rel=0.05)

    def test_paths_still_tracked(self, layout):
        """Uniform delivery changes timing, not the state machines."""
        engine = self.make_engine()
        report = engine.run_loop(LoopProgram(layout.chain(3, 8), 50), exact=True)
        assert report.uops_lsd > 0  # LSD still captures


class TestSmtIsolation:
    def test_isolated_threads_use_disjoint_sets(self):
        from repro.frontend.dsb import DecodedStreamBuffer

        dsb = DecodedStreamBuffer(FrontendParams(smt_isolation=True))
        addr = 0x400000 + 3 * 32
        assert dsb.effective_index(addr, smt_active=True, thread=0) == 3
        assert dsb.effective_index(addr, smt_active=True, thread=1) == 19

    def test_isolation_only_in_smt_mode(self):
        from repro.frontend.dsb import DecodedStreamBuffer

        dsb = DecodedStreamBuffer(FrontendParams(smt_isolation=True))
        addr = 0x400000 + 3 * 32
        assert dsb.effective_index(addr, smt_active=False, thread=1) == 3

    def test_no_cross_thread_evictions_when_isolated(self):
        from repro.frontend.dsb import DecodedStreamBuffer

        dsb = DecodedStreamBuffer(FrontendParams(smt_isolation=True))
        for slot in range(8):
            dsb.insert(0, 0x400000 + slot * 1024 + 3 * 32, 5, True)
        evicted = dsb.insert(1, 0x400000 + 100 * 1024 + 3 * 32, 5, True)
        assert evicted == []  # lands in the other half


class TestLsdUniformInteraction:
    def test_window_accesses_cached_per_body(self, layout):
        engine = FrontendEngine()
        program = LoopProgram(layout.chain(3, 4), 10)
        first = engine.window_accesses(program)
        second = engine.window_accesses(program)
        assert first is second  # cached

    def test_decode_costs_precomputed(self, layout):
        engine = FrontendEngine()
        accesses = engine.window_accesses(LoopProgram(layout.chain(3, 1), 1))
        assert accesses[0].decode_cycles > 0
        assert accesses[0].plain_decode_cycles == accesses[0].decode_cycles
