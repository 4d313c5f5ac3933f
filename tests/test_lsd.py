"""Tests for the Loop Stream Detector, including the paper's
misalignment-collision combinations (Section III-C)."""

from __future__ import annotations

import pytest

from repro.frontend.lsd import (
    LSD_CAPACITY,
    LoopStreamDetector,
    LsdState,
    misalignment_collides,
)
from repro.frontend.params import FrontendParams
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram


@pytest.fixture
def params() -> FrontendParams:
    return FrontendParams()


@pytest.fixture
def layout() -> BlockChainLayout:
    return BlockChainLayout()


def program(layout, aligned: int, misaligned: int, iterations: int = 10) -> LoopProgram:
    return LoopProgram(layout.mixed_chain(3, aligned, misaligned), iterations)


class TestStructuralQualification:
    def test_small_aligned_loop_qualifies(self, params, layout):
        lsd = LoopStreamDetector(params)
        assert lsd.structurally_qualifies(program(layout, 8, 0))

    def test_over_capacity_loop_rejected(self, params, layout):
        lsd = LoopStreamDetector(params)
        big = LoopProgram(layout.chain(3, 7) + layout.chain(5, 7, first_slot=10), 10)
        assert big.uops_per_iteration > LSD_CAPACITY
        assert not lsd.structurally_qualifies(big)

    def test_disabled_lsd_rejects_everything(self, params, layout):
        lsd = LoopStreamDetector(params, enabled=False)
        assert not lsd.structurally_qualifies(program(layout, 4, 0))

    def test_lcp_loop_rejected(self, params):
        from repro.isa.blocks import lcp_block

        lsd = LoopStreamDetector(params)
        assert not lsd.structurally_qualifies(LoopProgram([lcp_block(0)], 10))


class TestMisalignmentRule:
    """Exact combinations from Section III-C."""

    @pytest.mark.parametrize(
        "aligned,misaligned",
        [(7, 1), (5, 2), (6, 2), (3, 3), (4, 3), (5, 3), (0, 4)],
    )
    def test_paper_collision_cases(self, params, layout, aligned, misaligned):
        assert misalignment_collides(program(layout, aligned, misaligned), params)

    @pytest.mark.parametrize(
        "aligned,misaligned",
        [(8, 0), (4, 0), (0, 3), (3, 2), (4, 2), (6, 1), (0, 1)],
    )
    def test_non_collision_cases(self, params, layout, aligned, misaligned):
        assert not misalignment_collides(program(layout, aligned, misaligned), params)

    def test_collision_blocks_qualification(self, params, layout):
        lsd = LoopStreamDetector(params)
        assert not lsd.structurally_qualifies(program(layout, 5, 3))


class TestStateMachine:
    def test_captures_after_detect_iterations(self, params, layout):
        lsd = LoopStreamDetector(params)
        loop = program(layout, 8, 0)
        assert not lsd.is_streaming(loop)
        lsd.observe_iteration(loop, all_from_dsb=True)
        assert not lsd.is_streaming(loop)  # one qualifying iteration
        lsd.observe_iteration(loop, all_from_dsb=True)
        assert lsd.is_streaming(loop)
        assert lsd.stats.captures == 1

    def test_mite_activity_resets_streak(self, params, layout):
        lsd = LoopStreamDetector(params)
        loop = program(layout, 8, 0)
        lsd.observe_iteration(loop, all_from_dsb=True)
        lsd.observe_iteration(loop, all_from_dsb=False)  # a window missed
        lsd.observe_iteration(loop, all_from_dsb=True)
        assert not lsd.is_streaming(loop)

    def test_different_loop_not_streaming(self, params, layout):
        lsd = LoopStreamDetector(params)
        loop_a = program(layout, 8, 0)
        loop_b = LoopProgram(layout.chain(5, 8, first_slot=30), 10)
        for _ in range(3):
            lsd.observe_iteration(loop_a, all_from_dsb=True)
        assert lsd.is_streaming(loop_a)
        assert not lsd.is_streaming(loop_b)

    def test_eviction_of_loop_window_flushes(self, params, layout):
        lsd = LoopStreamDetector(params)
        loop = program(layout, 8, 0)
        for _ in range(3):
            lsd.observe_iteration(loop, all_from_dsb=True)
        assert lsd.on_dsb_eviction(loop.windows[0])
        assert lsd.state is LsdState.IDLE
        assert lsd.stats.flushes == 1

    def test_eviction_of_unrelated_window_ignored(self, params, layout):
        lsd = LoopStreamDetector(params)
        loop = program(layout, 8, 0)
        for _ in range(3):
            lsd.observe_iteration(loop, all_from_dsb=True)
        assert not lsd.on_dsb_eviction(0xDEAD000 // 32 * 32)
        assert lsd.is_streaming(loop)

    def test_misaligned_touch_same_folded_set_flushes(self, params, layout):
        lsd = LoopStreamDetector(params)
        loop = program(layout, 5, 0)  # blocks in set 3
        for _ in range(3):
            lsd.observe_iteration(loop, all_from_dsb=True)
        # A sibling thread touches a spanning window in folded set 3.
        touched = layout.block_address(3, 50)
        assert lsd.on_misaligned_set_touch(touched)

    def test_misaligned_touch_other_set_ignored(self, params, layout):
        lsd = LoopStreamDetector(params)
        loop = program(layout, 5, 0)  # set 3
        for _ in range(3):
            lsd.observe_iteration(loop, all_from_dsb=True)
        touched = layout.block_address(9, 50)
        assert not lsd.on_misaligned_set_touch(touched)
        assert lsd.is_streaming(loop)

    def test_flush_when_idle_is_noop(self, params):
        lsd = LoopStreamDetector(params)
        assert not lsd.flush()
        assert lsd.stats.flushes == 0

    def test_streamed_iteration_counter(self, params, layout):
        lsd = LoopStreamDetector(params)
        loop = program(layout, 8, 0)
        for _ in range(5):
            lsd.observe_iteration(loop, all_from_dsb=True)
        assert lsd.stats.streamed_iterations == 3  # after 2-iteration detect
