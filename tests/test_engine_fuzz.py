"""Fuzz-style property tests: engine invariants under arbitrary layouts.

Whatever program shape the engine is fed — aligned, misaligned, LCP-mixed,
set-colliding, window-overlapping — these invariants must hold:

* **uop conservation** — every uop of every iteration is delivered by
  exactly one path;
* **non-negative, finite costs** — cycles and energy never go negative
  or NaN;
* **DSB capacity** — no set ever exceeds its ways;
* **extrapolation consistency** — fast and exact runs agree.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.engine import FrontendEngine
from repro.frontend.params import FrontendParams
from repro.isa.blocks import DSB_SETS, DSB_WAYS, lcp_block, standard_mix_block
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram

LAYOUT = BlockChainLayout()


@st.composite
def arbitrary_programs(draw) -> LoopProgram:
    """Random mixtures of aligned/misaligned/LCP blocks over random sets."""
    n_blocks = draw(st.integers(min_value=1, max_value=14))
    blocks = []
    for i in range(n_blocks):
        kind = draw(st.sampled_from(["aligned", "misaligned", "lcp"]))
        dsb_set = draw(st.integers(min_value=0, max_value=31))
        slot = draw(st.integers(min_value=0, max_value=20))
        if kind == "aligned":
            blocks.append(
                standard_mix_block(LAYOUT.block_address(dsb_set, slot))
            )
        elif kind == "misaligned":
            blocks.append(
                standard_mix_block(
                    LAYOUT.block_address(dsb_set, slot, misaligned=True)
                )
            )
        else:
            blocks.append(
                lcp_block(LAYOUT.block_address(dsb_set, slot), lcp_sets=4,
                          mixed=draw(st.booleans()))
            )
    iterations = draw(st.integers(min_value=1, max_value=30))
    return LoopProgram(blocks, iterations)


class TestEngineInvariants:
    @given(arbitrary_programs())
    @settings(max_examples=60, deadline=None)
    def test_uop_conservation(self, program):
        engine = FrontendEngine()
        report = engine.run_loop(program, exact=True)
        assert report.total_uops == program.total_uops

    @given(arbitrary_programs())
    @settings(max_examples=60, deadline=None)
    def test_costs_finite_and_positive(self, program):
        engine = FrontendEngine()
        report = engine.run_loop(program, exact=True)
        assert math.isfinite(report.cycles) and report.cycles > 0
        assert math.isfinite(report.energy_nj) and report.energy_nj > 0
        assert 0 < report.ipc <= 4.0 + 1e-9

    @given(arbitrary_programs())
    @settings(max_examples=40, deadline=None)
    def test_dsb_capacity_never_exceeded(self, program):
        engine = FrontendEngine()
        engine.run_loop(program, exact=True)
        for index in range(DSB_SETS):
            used = sum(line.ways for line in engine.dsb._sets[index].values())
            assert used == engine.dsb._ways[index] <= DSB_WAYS

    @given(arbitrary_programs())
    @settings(max_examples=30, deadline=None)
    def test_extrapolation_matches_exact(self, program):
        exact = FrontendEngine().run_loop(program, exact=True)
        fast = FrontendEngine().run_loop(program)
        assert fast.cycles == pytest.approx(exact.cycles, rel=1e-9)
        assert fast.total_uops == exact.total_uops
        assert fast.uops_mite == exact.uops_mite

    @given(arbitrary_programs(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_smt_mode_never_cheaper(self, program, lsd_enabled):
        """SMT-active frontend arbitration can only add cycles."""
        solo = FrontendEngine(lsd_enabled=lsd_enabled).run_loop(
            program, exact=True
        )
        shared = FrontendEngine(lsd_enabled=lsd_enabled).run_loop(
            program, smt_active=True, exact=True
        )
        assert shared.cycles >= solo.cycles - 1e-9

    @given(arbitrary_programs())
    @settings(max_examples=30, deadline=None)
    def test_lsd_disabled_never_uses_lsd(self, program):
        engine = FrontendEngine(lsd_enabled=False)
        report = engine.run_loop(program, exact=True)
        assert report.uops_lsd == 0

    @given(arbitrary_programs())
    @settings(max_examples=30, deadline=None)
    def test_uniform_delivery_conserves_uops(self, program):
        params = FrontendParams(uniform_delivery=True)
        report = FrontendEngine(params).run_loop(program, exact=True)
        assert report.total_uops == program.total_uops
