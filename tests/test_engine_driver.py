"""Tests of the frontend engine's loop driver.

:meth:`FrontendEngine.run_loop` interprets a loop until its frontend
state repeats, then extrapolates the remaining iterations as whole and
partial cycles of the iterations since that state's latest visit.
These tests pin the tail arithmetic, extrapolated == exact on loops
whose cost cycles with a period above 2, a sweep's replay fixture, and
the simulator's observability instruments.
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
    LoopReport,
    _report_values,
    _step_fields,
)
from repro.isa.blocks import DSB_SETS, standard_mix_block
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.obs import MetricsRegistry, use_registry
from repro.service.spec import sweep_point_metrics
from repro.sweep import ParameterSweep
from repro.synth.generator import ProgramGenerator
from tests._replay import assert_replay

LAYOUT = BlockChainLayout()


# ----------------------------------------------------------------------
# tail extrapolation conservation (bugfix regression)
# ----------------------------------------------------------------------
def _iteration(**fields) -> LoopReport:
    return LoopReport(iterations=1, simulated_iterations=1, **fields)


#: Per-iteration reports of a 5-iteration cost cycle; every integer
#: counter differs between at least two of them.
CYCLE = (
    _iteration(cycles=12.5, uops_dsb=30, uops_mite=10, windows_dsb=5, windows_mite=2,
               switches_to_mite=2, switches_to_dsb=2, lcp_stalls=4, dsb_evictions=1,
               energy_nj=7.25),
    _iteration(cycles=9.75, uops_dsb=36, uops_mite=4, windows_dsb=6, windows_mite=1,
               switches_to_mite=1, switches_to_dsb=1, lcp_stalls=2, energy_nj=6.5),
    _iteration(cycles=7.0, uops_lsd=40, windows_lsd=7, lsd_captures=1, energy_nj=3.0),
    _iteration(cycles=8.25, uops_lsd=40, windows_lsd=7, energy_nj=2.75),
    _iteration(cycles=15.0, uops_mite=40, windows_mite=7, switches_to_mite=1,
               lsd_flushes=1, dsb_evictions=3, energy_nj=11.0),
)
INTEGER_FIELDS = [f.name for f in dataclasses.fields(LoopReport) if f.type == "int"]


def extrapolate_tail(steps, remaining):
    """The report of ``remaining`` iterations that ``_tail`` adds after
    a cycle of the single-iteration reports ``steps``, on its own."""
    engine = FrontendEngine()
    state = engine._state(())
    cycle = tuple((_step_fields((step,)), state) for step in steps)
    (values,) = engine._tail((), (_report_values(LoopReport()),), cycle, remaining)
    return LoopReport(*values)


def repeated_merge(steps, remaining):
    """The same iterations, merged one by one."""
    total = LoopReport()
    for i in range(remaining):
        total.merge(steps[i % len(steps)])
    return total


class TestExtrapolationConservation:
    @pytest.mark.parametrize("period", [1, 2, 5])
    @pytest.mark.parametrize("remaining", [5, 6, 7, 10, 12, 1_000_001])
    def test_integer_counters_are_conserved(self, period, remaining):
        """Whole cycles, then the first ``remaining % period`` steps of
        one more: odd and even remainders, whole and partial cycles."""
        steps = CYCLE[:period]
        tail = extrapolate_tail(steps, remaining)
        whole, part = divmod(remaining, period)
        for name in INTEGER_FIELDS:
            want = sum(
                getattr(step, name) * (whole + (i < part)) for i, step in enumerate(steps)
            )
            if name == "simulated_iterations":
                want = 0
            assert getattr(tail, name) == want, (period, remaining, name)
        assert tail.iterations == remaining
        assert tail.cycles == pytest.approx(repeated_merge(steps, remaining).cycles, rel=1e-12)

    def test_period_one_matches_repeated_merge(self):
        """Period 1 adds ``value * remaining`` per field."""
        last = CYCLE[1]
        tail = extrapolate_tail((last,), 7)
        manual = repeated_merge((last,), 7)
        assert tail.uops_dsb == manual.uops_dsb
        assert tail.cycles == last.cycles * 7
        assert tail.cycles == pytest.approx(manual.cycles, rel=0, abs=1e-9)

    def test_period_two_odd_remaining_golden(self):
        """5 remaining after a cycle ``a, b`` => a, b, a, b, a."""
        a, b = CYCLE[:2]
        tail = extrapolate_tail((a, b), 5)
        assert tail.iterations == 5
        assert tail.simulated_iterations == 0
        for name in ("uops_dsb", "uops_mite", "lcp_stalls", "switches_to_mite"):
            assert getattr(tail, name) == 3 * getattr(a, name) + 2 * getattr(b, name), name
        assert tail.dsb_evictions == 3 * a.dsb_evictions
        assert tail.cycles == 3 * a.cycles + 2 * b.cycles

    def test_period_two_even_remaining_golden(self):
        a, b = CYCLE[:2]
        tail = extrapolate_tail((a, b), 6)
        assert tail.uops_dsb == 3 * (a.uops_dsb + b.uops_dsb)
        assert tail.total_uops == 3 * (a.total_uops + b.total_uops)

    @given(st.integers(min_value=1, max_value=1_000_001))
    @settings(max_examples=60, deadline=None)
    def test_period_two_conserves_uops_for_any_remaining(self, remaining):
        a, b = CYCLE[:2]
        tail = extrapolate_tail((a, b), remaining)
        head = (remaining + 1) // 2
        assert tail.total_uops == head * a.total_uops + (remaining - head) * b.total_uops

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


# ----------------------------------------------------------------------
# extrapolated == exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "candidate, bit",
    [(42, 1), (12, 0), (12, 1)],
    ids=["42-bit1-period5", "12-bit0", "12-bit1"],
)
@pytest.mark.parametrize("iterations", [17, 65])
def test_extrapolated_loop_equals_exact(candidate, bit, iterations):
    """Extrapolation gives the exact run's report and leaves the exact
    run's frontend state in every DSB set.

    Regressions, on synthesised candidates of ``ProgramGenerator(seed=3)``:
    candidate 42's bit-1 body delivers 67, 67, 67, 72, 82 DSB uops per
    iteration, a period-5 cost that two equal reports passed for a
    steady state (``uops_dsb`` 1117 against 1157 at 17 iterations).
    Candidate 12 cycles with period 2; an odd remainder (65) ended a
    tail that left the last *simulated* iteration's state in the other
    phase."""
    body = ProgramGenerator(seed=3).generate(candidate).bodies(LAYOUT)[bit]
    program = LoopProgram(body, iterations)
    engines = FrontendEngine(), FrontendEngine()
    got = engines[0].run_loop(program)
    want = engines[1].run_loop(program, exact=True)
    assert got.simulated_iterations < iterations
    for field in dataclasses.fields(LoopReport):
        name = field.name
        if name == "simulated_iterations":
            continue
        if field.type == "float":
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-9, abs=0), name
        else:
            assert getattr(got, name) == getattr(want, name), name
    every_set = tuple(range(DSB_SETS))
    assert engines[0]._state(every_set) == engines[1]._state(every_set)


def test_lsd_toggle_on_a_live_core_takes_effect():
    """A microcode patch flipping the LSD on a live core
    (``Machine.set_lsd_enabled``) changes the very next run.  From the third
    run on, each entry state differs from a recorded one only in the
    LSD's ``enabled`` bit, and the last two runs are replays."""
    program = LoopProgram(
        [standard_mix_block(LAYOUT.block_address(s, 7)) for s in range(4)],
        5_000,
    )
    machine = Machine(GOLD_6226, seed=71)
    for enabled in (True, False, True, False, True):
        machine.set_lsd_enabled(enabled)
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
