"""Tests for loop programs."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import LayoutError
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram


@pytest.fixture
def layout() -> BlockChainLayout:
    return BlockChainLayout()


class TestLoopProgram:
    def test_uops_per_iteration(self, layout):
        program = LoopProgram(layout.chain(3, 8), 100)
        assert program.uops_per_iteration == 40
        assert program.total_uops == 4000

    def test_windows_deduplicated(self, layout):
        blocks = layout.chain(3, 4)
        program = LoopProgram(blocks + blocks, 1)  # body repeats blocks
        assert len(program.windows) == 4

    def test_window_events_count_misaligned_twice(self, layout):
        aligned = LoopProgram(layout.chain(3, 4), 1)
        misaligned = LoopProgram(layout.chain(3, 4, misaligned=True), 1)
        assert aligned.window_events_per_iteration == 4
        assert misaligned.window_events_per_iteration == 8

    def test_misaligned_block_counts(self, layout):
        program = LoopProgram(layout.mixed_chain(3, 5, 3), 1)
        assert program.aligned_blocks == 5
        assert program.misaligned_blocks == 3

    def test_with_iterations(self, layout):
        program = LoopProgram(layout.chain(3, 2), 10, label="x")
        longer = program.with_iterations(500)
        assert longer.iterations == 500
        assert longer.body == program.body
        assert longer.label == "x"

    @pytest.mark.parametrize("misaligned", [False, True])
    def test_with_iterations_matches_the_constructor(self, layout, misaligned):
        """The copy keeps the derived attributes and recomputes only the
        trip count and hash, so it is indistinguishable from a fresh
        program."""
        program = LoopProgram(layout.chain(3, 4, misaligned=misaligned), 10, label="x")
        longer = program.with_iterations(500)
        fresh = LoopProgram(program.body, 500, label="x")
        assert longer == fresh and hash(longer) == hash(fresh)
        assert vars(longer) == vars(fresh)
        assert pickle.loads(pickle.dumps(longer)) == fresh
        assert vars(pickle.loads(pickle.dumps(longer))) == vars(fresh)
        assert program.iterations == 10  # the original is untouched
        with pytest.raises(LayoutError):
            program.with_iterations(0)

    def test_concat(self, layout):
        a = LoopProgram(layout.chain(3, 2), 10)
        b = LoopProgram(layout.chain(5, 3, first_slot=10), 10)
        merged = a.concat(b, label="merged")
        assert len(merged.body) == 5
        assert merged.label == "merged"

    def test_concat_rejects_mismatched_iterations(self, layout):
        a = LoopProgram(layout.chain(3, 2), 10)
        b = LoopProgram(layout.chain(5, 2), 20)
        with pytest.raises(LayoutError):
            a.concat(b)

    def test_rejects_empty_body(self):
        with pytest.raises(LayoutError):
            LoopProgram([], 10)

    def test_rejects_zero_iterations(self, layout):
        with pytest.raises(LayoutError):
            LoopProgram(layout.chain(3, 1), 0)

    def test_lcp_count(self, layout):
        from repro.isa.blocks import lcp_block

        program = LoopProgram([lcp_block(0, lcp_sets=16)], 1)
        assert program.lcp_instructions_per_iteration == 16

    def test_body_immutable_tuple(self, layout):
        program = LoopProgram(layout.chain(3, 2), 1)
        assert isinstance(program.body, tuple)
