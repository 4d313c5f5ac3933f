"""Tests for per-iteration execution tracing."""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError
from repro.frontend.paths import DeliveryPath
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226, XEON_E2174G
from repro.machine.trace import render_trace, trace_loop


class TestTraceLoop:
    def test_lsd_capture_sequence_visible(self):
        """An LSD machine's small loop shows MITE -> DSB -> LSD."""
        machine = Machine(GOLD_6226, seed=9)
        program = LoopProgram(machine.layout().chain(3, 8), 20)
        trace = trace_loop(machine, program)
        paths = trace.paths()
        assert paths[0] is DeliveryPath.MITE  # cold fill
        assert paths[1] is DeliveryPath.DSB  # resident, detecting
        assert paths[-1] is DeliveryPath.LSD  # streaming
        assert trace.iterations_on(DeliveryPath.LSD) >= 15

    def test_thrash_loop_stays_mite(self):
        machine = Machine(GOLD_6226, seed=9)
        program = LoopProgram(machine.layout().chain(3, 9), 20)
        trace = trace_loop(machine, program)
        assert trace.iterations_on(DeliveryPath.MITE) == 20

    def test_no_lsd_machine_settles_in_dsb(self):
        machine = Machine(XEON_E2174G, seed=9)
        program = LoopProgram(machine.layout().chain(3, 8), 20)
        trace = trace_loop(machine, program)
        assert trace.reports[-1].dominant_path() is DeliveryPath.DSB
        assert trace.iterations_on(DeliveryPath.LSD) == 0

    def test_transitions_located(self):
        machine = Machine(GOLD_6226, seed=9)
        program = LoopProgram(machine.layout().chain(3, 8), 20)
        trace = trace_loop(machine, program)
        transitions = trace.path_transitions()
        assert 1 in transitions  # MITE -> DSB after the cold iteration

    def test_max_iterations_cap(self):
        machine = Machine(GOLD_6226, seed=9)
        program = LoopProgram(machine.layout().chain(3, 4), 1000)
        trace = trace_loop(machine, program, max_iterations=12)
        assert len(trace.reports) == 12

    def test_validation(self):
        machine = Machine(GOLD_6226, seed=9)
        program = LoopProgram(machine.layout().chain(3, 4), 10)
        with pytest.raises(ExecutionError):
            trace_loop(machine, program, max_iterations=0)

    def test_total_cycles_positive(self):
        machine = Machine(GOLD_6226, seed=9)
        program = LoopProgram(machine.layout().chain(3, 4), 10)
        trace = trace_loop(machine, program)
        assert trace.total_cycles > 0


class TestRenderTrace:
    def test_render_contains_symbols(self):
        machine = Machine(GOLD_6226, seed=9)
        program = LoopProgram(machine.layout().chain(3, 8), 20, label="demo")
        text = render_trace(trace_loop(machine, program))
        assert "demo" in text
        assert "M" in text and "L" in text

    def test_render_wraps(self):
        machine = Machine(GOLD_6226, seed=9)
        program = LoopProgram(machine.layout().chain(3, 4), 100)
        text = render_trace(trace_loop(machine, program, max_iterations=100), width=40)
        assert text.count("\n") >= 3

    def test_flush_marked_lowercase(self):
        """An iteration carrying an LSD flush renders lowercase."""
        machine = Machine(GOLD_6226, seed=9)
        layout = machine.layout()
        loop = LoopProgram(layout.chain(3, 8), 10)
        trace_loop(machine, loop)  # stream from the LSD
        intruder = LoopProgram(layout.chain(3, 9, first_slot=50), 3)
        trace = trace_loop(machine, intruder)  # evict under the stream
        symbols = render_trace(trace).splitlines()[1].split()[-1]
        flushed = [report.lsd_flushes > 0 for report in trace.reports]
        assert any(flushed)
        assert [char.islower() for char in symbols] == flushed
