"""Concurrent execution of two hardware threads on one core.

Hyper-threaded execution is modelled by interleaving the two threads'
loop iterations through the shared frontend state, with the DSB in its
SMT (set-folded) mode for as long as both threads have work.  When one
thread finishes, the survivor continues in single-thread mode — and its
DSB index mapping reverts, which is exactly the repartitioning behaviour
the paper's Figure 2 experiment exposes.

Interleaving granularity is one loop iteration, with the ratio of
iterations chosen proportionally (e.g. the MT channels run p=10 receiver
decode iterations per sender encode iteration).  A steady-state detector
extrapolates long runs (the 20M-iteration partitioning experiments)
without simulating every round, and the engine's run memo replays a
whole run whose entry state was already seen.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.frontend.engine import LoopReport
from repro.isa.program import LoopProgram
from repro.machine.core import Core

__all__ = ["SmtExecutor", "SmtRunResult"]


@dataclass
class SmtRunResult:
    """Per-thread delivery reports of one concurrent run."""

    primary: LoopReport
    secondary: LoopReport

    @property
    def total_cycles(self) -> float:
        """Wall-clock cycles: the threads run concurrently, so the run
        lasts as long as the busier thread."""
        return max(self.primary.cycles, self.secondary.cycles)


class SmtExecutor:
    """Interleaves two loop programs on the two hardware threads."""

    #: Interleave rounds simulated before extrapolation may engage.
    MIN_WARMUP_ROUNDS = 6
    #: Maximum explicitly simulated rounds.
    MAX_SIMULATED_ROUNDS = 128

    def __init__(self, core: Core) -> None:
        if core.n_threads < 2:
            raise ConfigurationError(
                f"{core.spec.name} has no second hardware thread"
            )
        self.core = core

    def run(
        self,
        primary: LoopProgram,
        secondary: LoopProgram,
        exact: bool = False,
    ) -> SmtRunResult:
        """Run ``primary`` on thread 0 and ``secondary`` on thread 1.

        Iterations are interleaved proportionally so both loops finish at
        roughly the same time, matching two free-running threads.  Both
        threads see ``smt_active`` frontend behaviour (folded DSB index,
        shared decode bandwidth) for the whole overlap.
        """
        engine = self.core.engine
        # Both threads' SMT plans, plus the primary's single-thread plan
        # for the drain.
        sets = {
            *engine._plan(primary, 0, True)[1],
            *engine._plan(secondary, 1, True)[1],
            *engine._plan(primary, 0, False)[1],
        }
        reports = engine.memo_run(
            (primary, secondary, exact),
            tuple(sorted(sets)),
            lambda: self._interleave(primary, secondary, exact),
        )
        return SmtRunResult(primary=reports[0], secondary=reports[1])

    def _interleave(
        self, primary: LoopProgram, secondary: LoopProgram, exact: bool
    ) -> tuple[LoopReport, LoopReport]:
        engine = self.core.engine
        ratio = max(1, round(primary.iterations / secondary.iterations))
        total_rounds = secondary.iterations
        primary_left = primary.iterations

        primary_report = LoopReport()
        secondary_report = LoopReport()
        history: list[tuple] = []
        rounds_done = 0
        limit = total_rounds if exact else min(total_rounds, self.MAX_SIMULATED_ROUNDS)

        while rounds_done < limit:
            round_primary = LoopReport()
            burst = min(ratio, primary_left)
            for _ in range(burst):
                round_primary.add_iteration(
                    engine.run_iteration(primary, thread=0, smt_active=True)
                )
            primary_left -= burst
            cost = engine.run_iteration(secondary, thread=1, smt_active=True)
            round_secondary = cost.to_report()
            primary_report.merge(round_primary)
            secondary_report.merge(round_secondary)
            rounds_done += 1
            history.append(
                (round(round_primary.cycles, 9), round(round_secondary.cycles, 9))
            )
            if (
                not exact
                and rounds_done >= self.MIN_WARMUP_ROUNDS
                and engine._is_steady(history)
                and rounds_done < total_rounds
            ):
                remaining = total_rounds - rounds_done
                secondary_report.merge(self._scale_round(round_secondary, remaining))
                # The primary side must never extrapolate past its own
                # iteration budget (the last simulated round's burst may
                # exceed what remains when the interleave ratio rounds).
                if burst > 0 and primary_left > 0:
                    full_rounds = min(remaining, primary_left // burst)
                    if full_rounds > 0:
                        primary_report.merge(
                            self._scale_round(round_primary, full_rounds)
                        )
                        primary_left -= full_rounds * burst
                rounds_done = total_rounds
                break

        # Drain any leftover primary iterations single-threaded (the
        # sender went idle; DSB indexing reverts to all sets).
        primary_drained = False
        if primary_left > 0:
            drain = primary.with_iterations(primary_left)
            primary_report.merge(
                engine.run_loop(drain, thread=0, smt_active=False, exact=exact)
            )
            primary_drained = True  # run_loop already charged the loop exit

        # Loop exits for both threads (unless already charged by a drain).
        exit_cost = self.core.params.loop_exit_mispredict
        targets = [(secondary_report, 1)]
        if not primary_drained:
            targets.append((primary_report, 0))
        for report, thread in targets:
            report.cycles += exit_cost
            report.energy_nj += exit_cost * self.core.energy.cycle_energy
            engine.lsds[thread].flush()
        if primary_drained:
            engine.lsds[0].flush()
        return primary_report, secondary_report

    @staticmethod
    def _scale_round(round_report: LoopReport, remaining: int) -> LoopReport:
        scaled = round_report.scaled(remaining)
        scaled.simulated_iterations = 0
        return scaled
