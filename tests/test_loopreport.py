"""Tests for LoopReport arithmetic and the engine's stream interface."""

from __future__ import annotations

from dataclasses import astuple, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.engine import FrontendEngine, LoopReport, _IterationCost
from repro.frontend.paths import DeliveryPath
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram


def report(**kwargs) -> LoopReport:
    return LoopReport(**kwargs)


def drawn(cls):
    """Instances of a report dataclass with every field drawn by its type."""
    floats = st.floats(allow_nan=False, allow_infinity=False)
    counts = st.integers(min_value=0, max_value=10**9)
    return st.builds(
        cls, **{f.name: floats if f.type == "float" else counts for f in fields(cls)}
    )


def bits(report: LoopReport) -> list:
    """Every field, floats as ``float.hex`` so that equality is bitwise."""
    return [v.hex() if isinstance(v, float) else v for v in astuple(report)]


class TestLoopReportArithmetic:
    def test_merge_accumulates_every_field(self):
        """Walks the dataclass fields, so a field added to LoopReport
        but not to the explicit ``merge`` fails here."""
        names = [f.name for f in fields(LoopReport)]
        kinds = {name: type(getattr(LoopReport(), name)) for name in names}
        a = report(**{n: kinds[n](i + 1) for i, n in enumerate(names)})
        b = report(**{n: kinds[n](100 * (i + 1)) for i, n in enumerate(names)})
        a.merge(b)
        for i, name in enumerate(names):
            assert getattr(a, name) == kinds[name](101 * (i + 1)), name

    @given(drawn(LoopReport), drawn(_IterationCost))
    @settings(max_examples=60)
    def test_add_iteration_is_merge_of_to_report(self, start, cost):
        via_merge = report(**vars(start)).merge(cost.to_report())
        direct = report(**vars(start))
        assert direct.add_iteration(cost) is direct
        assert bits(direct) == bits(via_merge)

    def test_merge_returns_self(self):
        a = report()
        assert a.merge(report(cycles=1.0)) is a

    def test_scaled_floats_exact_ints_rounded(self):
        base = report(cycles=3.0, uops_dsb=3)
        scaled = base.scaled(2.5)
        assert scaled.cycles == 7.5
        assert scaled.uops_dsb == 8  # round(7.5)

    def test_scaled_zero(self):
        scaled = report(cycles=100.0, uops_mite=7).scaled(0)
        assert scaled.cycles == 0.0
        assert scaled.uops_mite == 0

    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40)
    def test_total_uops(self, lsd, dsb, mite):
        r = report(uops_lsd=lsd, uops_dsb=dsb, uops_mite=mite)
        assert r.total_uops == lsd + dsb + mite

    def test_dominant_path(self):
        assert report(uops_lsd=10, uops_dsb=3).dominant_path() is DeliveryPath.LSD
        assert report(uops_mite=10, uops_dsb=3).dominant_path() is DeliveryPath.MITE

    def test_ipc_zero_cycles(self):
        assert report(uops_dsb=5).ipc == 0.0


def _iteration_stream(engine, program, thread=0, smt_active=False):
    """One report per iteration of ``program``, straight from
    ``run_iteration``: no steady-state cut-off and no loop exit."""
    for _ in range(program.iterations):
        yield engine.run_iteration(program, thread, smt_active).to_report()


class TestIterationStream:
    def test_stream_yields_per_iteration_reports(self):
        engine = FrontendEngine()
        layout = BlockChainLayout()
        program = LoopProgram(layout.chain(3, 4), 5)
        reports = list(_iteration_stream(engine, program))
        assert len(reports) == 5
        assert all(r.iterations == 1 for r in reports)

    def test_stream_matches_exact_run(self):
        layout = BlockChainLayout()
        program = LoopProgram(layout.chain(3, 8), 20)
        streamed = FrontendEngine()
        total = LoopReport()
        for r in _iteration_stream(streamed, program):
            total.merge(r)
        # run_loop adds the loop-exit mispredict the stream does not.
        exact_engine = FrontendEngine()
        exact = exact_engine.run_loop(program, exact=True)
        assert total.total_uops == exact.total_uops
        assert total.cycles == pytest.approx(
            exact.cycles - exact_engine.params.loop_exit_mispredict
        )

    def test_stream_mutates_shared_state(self):
        engine = FrontendEngine()
        layout = BlockChainLayout()
        program = LoopProgram(layout.chain(3, 4), 3)
        list(_iteration_stream(engine, program))
        # Windows are now DSB-resident for the next consumer.
        follow_up = engine.run_iteration(program, thread=0)
        assert follow_up.uops_mite == 0
