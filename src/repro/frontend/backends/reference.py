"""The reference backend: the original per-iteration interpreter driver.

This is the engine's historical ``run_loop`` body, extracted verbatim so
other backends have a single source of truth to be bit-identical
against.  Every iteration goes through
:meth:`FrontendEngine.run_iteration` (full per-window interpretation);
once the per-iteration cost repeats with period 1 or 2 the remaining
iterations are extrapolated analytically via
:func:`repro.frontend.engine.extrapolate_tail`.  Runs go through the
engine's run memo (:meth:`FrontendEngine.memo_run`), so a run from an
entry state already seen replays instead of being interpreted.
"""

from __future__ import annotations

from repro.frontend.engine import (
    FrontendEngine,
    LoopReport,
    _IterationCost,
    extrapolate_tail,
)
from repro.isa.program import LoopProgram

__all__ = ["ReferenceBackend"]


class ReferenceBackend:
    """Iteration-by-iteration driver over the full interpreter."""

    name = "reference"

    def run_loop(
        self,
        engine: FrontendEngine,
        program: LoopProgram,
        thread: int,
        smt_active: bool,
        exact: bool,
    ) -> LoopReport:
        (report,) = engine.memo_run(
            (program, thread, smt_active, exact),
            engine._plan(program, thread, smt_active)[1],
            lambda: (self._interpret(engine, program, thread, smt_active, exact),),
        )
        return report

    @staticmethod
    def _interpret(
        engine: FrontendEngine,
        program: LoopProgram,
        thread: int,
        smt_active: bool,
        exact: bool,
    ) -> LoopReport:
        report = LoopReport()
        history: list[tuple] = []
        iteration = 0
        limit = (
            program.iterations
            if exact
            else min(program.iterations, engine.MAX_SIMULATED)
        )
        steady = False
        prev_cost: _IterationCost | None = None
        cost: _IterationCost | None = None
        # Pre-capture DSB iterations look steady but are not: a loop the
        # LSD could still lock onto must be simulated past the detection
        # latency before extrapolation may engage.
        min_warmup = engine.MIN_WARMUP
        if engine.lsds[thread].structurally_qualifies(program):
            min_warmup = max(min_warmup, engine.params.lsd_detect_iterations + 2)
        while iteration < limit:
            prev_cost, cost = cost, engine.run_iteration(program, thread, smt_active)
            report.add_iteration(cost)
            history.append(cost.key())
            iteration += 1
            if not exact and iteration >= min_warmup and engine._is_steady(history):
                steady = True
                break
        remaining = program.iterations - iteration
        if remaining > 0 and cost is not None:
            if not steady:
                # Hit MAX_SIMULATED without period-1/2 convergence: run
                # one more live iteration and repeat it for the tail.
                prev_cost, cost = None, engine.run_iteration(
                    program, thread, smt_active
                )
                report.add_iteration(cost)
                remaining -= 1
            if remaining > 0:
                period_two = steady and history[-1] != history[-2]
                report.merge(
                    extrapolate_tail(prev_cost, cost, remaining, period_two)
                )
                if engine.lsds[thread].is_streaming(program):
                    engine.lsds[thread].stats.streamed_iterations += remaining
        # Loop exit: the terminal backward branch mispredicts and any LSD
        # stream for this loop ends (no flush penalty is charged to the
        # *next* loop; the exit cost covers it).
        report.cycles += engine.params.loop_exit_mispredict
        report.energy_nj += engine.params.loop_exit_mispredict * engine.energy.cycle_energy
        engine.lsds[thread].flush()
        engine._last_path[thread] = None
        return report
