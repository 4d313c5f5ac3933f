"""Tests of the frontend engine's loop driver.

:meth:`FrontendEngine.run_loop` interprets a loop until its
per-iteration cost repeats with period 1 or 2, then extrapolates the
remaining iterations.  These tests pin the steady-state detection key
and the extrapolation arithmetic (both regressions once), a sweep's
replay fixture, and the simulator's observability instruments.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import SerialExecutor
from repro.frontend.engine import (
    SIM_LATENCY_EDGES,
    FrontendEngine,
    _IterationCost,
    extrapolate_tail,
)
from repro.isa.blocks import standard_mix_block
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.obs import MetricsRegistry, use_registry
from repro.service.spec import sweep_point_metrics
from repro.sweep import ParameterSweep
from tests._replay import assert_replay

LAYOUT = BlockChainLayout()


# ----------------------------------------------------------------------
# steady-state detection key (bugfix regression)
# ----------------------------------------------------------------------
class TestIterationCostKey:
    BASE = dict(
        cycles=10.0,
        uops_lsd=0,
        uops_dsb=24,
        uops_mite=8,
        windows_lsd=0,
        windows_dsb=4,
        windows_mite=2,
        switches_to_mite=1,
        switches_to_dsb=1,
        lcp_stalls=2,
        lsd_flushes=0,
        lsd_captures=0,
        dsb_evictions=0,
        energy_nj=5.0,
    )

    def test_every_field_participates(self):
        base = _IterationCost(**self.BASE)
        for field in dataclasses.fields(_IterationCost):
            bumped = dataclasses.replace(
                base, **{field.name: getattr(base, field.name) + 1}
            )
            assert bumped.key() != base.key(), field.name

    def test_switch_count_variation_breaks_equality(self):
        """Regression: the old key was the (cycles, uops_lsd, uops_dsb,
        uops_mite, lcp_stalls) subset, so iterations differing only in
        switch/flush/eviction/energy counters compared equal and
        extrapolation scaled the wrong deltas."""
        a = _IterationCost(**self.BASE)
        b = dataclasses.replace(
            a, switches_to_mite=3, switches_to_dsb=3, energy_nj=9.0
        )
        old_subset = ("cycles", "uops_lsd", "uops_dsb", "uops_mite", "lcp_stalls")
        assert all(getattr(a, f) == getattr(b, f) for f in old_subset)
        assert a.key() != b.key()


# ----------------------------------------------------------------------
# scaled() / extrapolate_tail conservation (bugfix regression)
# ----------------------------------------------------------------------
class TestExtrapolationConservation:
    PREV = _IterationCost(
        cycles=12.5,
        uops_lsd=0,
        uops_dsb=30,
        uops_mite=10,
        windows_lsd=0,
        windows_dsb=5,
        windows_mite=2,
        switches_to_mite=2,
        switches_to_dsb=2,
        lcp_stalls=4,
        lsd_flushes=0,
        lsd_captures=0,
        dsb_evictions=1,
        energy_nj=7.25,
    )
    LAST = _IterationCost(
        cycles=9.75,
        uops_lsd=0,
        uops_dsb=36,
        uops_mite=4,
        windows_lsd=0,
        windows_dsb=6,
        windows_mite=1,
        switches_to_mite=1,
        switches_to_dsb=1,
        lcp_stalls=2,
        lsd_flushes=0,
        lsd_captures=0,
        dsb_evictions=0,
        energy_nj=6.5,
    )

    @given(st.integers(min_value=0, max_value=10**7))
    @settings(max_examples=60, deadline=None)
    def test_scaled_integral_factor_is_exact(self, factor):
        report = self.LAST.to_report()
        scaled = report.scaled(factor)
        assert scaled.uops_dsb == report.uops_dsb * factor
        assert scaled.uops_mite == report.uops_mite * factor
        assert scaled.lcp_stalls == report.lcp_stalls * factor
        assert scaled.switches_to_mite == report.switches_to_mite * factor
        assert scaled.cycles == report.cycles * factor

    def test_period_two_odd_remaining_golden(self):
        """5 remaining after ...prev,last ends => prev,last,prev,last,prev."""
        tail = extrapolate_tail(self.PREV, self.LAST, 5, period_two=True)
        assert tail.iterations == 5
        assert tail.simulated_iterations == 0
        assert tail.uops_dsb == 3 * self.PREV.uops_dsb + 2 * self.LAST.uops_dsb
        assert tail.uops_mite == 3 * self.PREV.uops_mite + 2 * self.LAST.uops_mite
        assert tail.lcp_stalls == 3 * self.PREV.lcp_stalls + 2 * self.LAST.lcp_stalls
        assert (
            tail.switches_to_mite
            == 3 * self.PREV.switches_to_mite + 2 * self.LAST.switches_to_mite
        )
        assert tail.dsb_evictions == 3 * self.PREV.dsb_evictions
        assert tail.cycles == 3 * self.PREV.cycles + 2 * self.LAST.cycles

    def test_period_two_even_remaining_golden(self):
        tail = extrapolate_tail(self.PREV, self.LAST, 6, period_two=True)
        assert tail.uops_dsb == 3 * (self.PREV.uops_dsb + self.LAST.uops_dsb)
        assert tail.total_uops == 3 * (
            self.PREV.uops_dsb
            + self.PREV.uops_mite
            + self.LAST.uops_dsb
            + self.LAST.uops_mite
        )

    def test_period_one_matches_repeated_merge(self):
        tail = extrapolate_tail(None, self.LAST, 7, period_two=False)
        manual = self.LAST.to_report()
        for _ in range(6):
            manual.merge(self.LAST.to_report())
        assert tail.uops_dsb == manual.uops_dsb
        assert tail.cycles == pytest.approx(manual.cycles, rel=0, abs=1e-9)

    @given(st.integers(min_value=1, max_value=1_000_001))
    @settings(max_examples=60, deadline=None)
    def test_period_two_conserves_uops_for_any_remaining(self, remaining):
        tail = extrapolate_tail(self.PREV, self.LAST, remaining, period_two=True)
        head = (remaining + 1) // 2
        assert tail.total_uops == head * (
            self.PREV.uops_dsb + self.PREV.uops_mite
        ) + (remaining - head) * (self.LAST.uops_dsb + self.LAST.uops_mite)

    def test_extrapolated_run_conserves_uops_end_to_end(self):
        """A DSB/MITE-alternating loop at sweep-scale iteration counts
        must conserve uops exactly — the banker's-rounding scaled() path
        drifted by one window on odd extrapolations."""
        program = LoopProgram(
            [standard_mix_block(LAYOUT.block_address(s, 3)) for s in range(6)],
            1_000_001,
        )
        report = FrontendEngine().run_loop(program)
        assert report.total_uops == program.total_uops


def test_lsd_toggle_on_a_live_core_takes_effect():
    """A microcode patch flipping the LSD on a live core
    (``Core.set_lsd_enabled``) changes the very next run.  From the third
    run on, each entry state differs from a recorded one only in the
    LSD's ``enabled`` bit, and the last two runs are replays."""
    program = LoopProgram(
        [standard_mix_block(LAYOUT.block_address(s, 7)) for s in range(4)],
        5_000,
    )
    machine = Machine(GOLD_6226, seed=71)
    for enabled in (True, False, True, False, True):
        machine.core.set_lsd_enabled(enabled)
        assert (machine.run_loop(program).uops_lsd > 0) == enabled


# ----------------------------------------------------------------------
# deterministic replay
# ----------------------------------------------------------------------
def test_sweep_replays_fixture():
    factory = functools.partial(
        sweep_point_metrics, "Gold 6226", "eviction", "stealthy", 16
    )
    sweep = ParameterSweep(factory, {"d": [2, 4], "p": [3]}, trials=1, base_seed=11)
    assert_replay("frontend_backend_reference", sweep.run(executor=SerialExecutor()))


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_sim_latency_uses_microsecond_edges():
    """One simulator call takes tens to hundreds of microseconds, so
    ``sim.latency`` buckets at that scale, not the registry default."""
    program = LoopProgram([standard_mix_block(LAYOUT.block_address(0, 9))], 25)
    registry = MetricsRegistry()
    with use_registry(registry):
        FrontendEngine().run_loop(program)
    (latency,) = [
        entry for entry in registry.snapshot()["metrics"]
        if entry["name"] == "sim.latency"
    ]
    assert tuple(latency["edges"]) == SIM_LATENCY_EDGES
    assert latency["count"] == 1 and latency["tags"] == {}
    assert registry.counter("sim.points").value == 1
    assert SIM_LATENCY_EDGES[0] < 1e-4 and SIM_LATENCY_EDGES[-1] < 1.0
