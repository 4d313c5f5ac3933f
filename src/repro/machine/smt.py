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
without simulating every round.

A run splits into its *simulated prefix* (:meth:`SmtExecutor._interleave`:
the rounds up to the steady state) and its *finish*
(:meth:`SmtExecutor._finish`: the extrapolated rounds, the drain and the
loop exits), which alone depend on the trip counts.  The engine's run
memo keys a prefix on both bodies and the interleave ratio, without the
counts: a run from an entry state already seen replays it whenever its
counts would have simulated the same rounds (same ratio, more secondary
iterations than the recorded rounds, enough primary iterations for
every recorded burst), and finishes live.  So the MT channels' slipped
bits, which run the same two loops at new counts, replay instead of
re-simulating.  Other runs are memoized whole.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.frontend.engine import (
    _ITERATIONS,
    LoopReport,
    _extend,
    _Prefix,
    _report_values,
    _terms,
)
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
        plans = (engine._plan(primary, 0, True), engine._plan(secondary, 1, True))
        sets = {*plans[0].sets, *plans[1].sets, *engine._plan(primary, 0, False).sets}
        ratio = max(1, round(primary.iterations / secondary.iterations))
        # The SMT plans name both bodies.
        reports = engine.memo_run(
            (primary, secondary, exact),
            tuple(sorted(sets)),
            lambda: self._interleave(primary, secondary, ratio, exact),
            finish=lambda prefix: self._finish(primary, secondary, ratio, exact, prefix),
            prefix=None if exact else ((*plans, ratio), (primary.iterations, secondary.iterations)),
        )
        return SmtRunResult(primary=reports[0], secondary=reports[1])

    def _round(
        self, primary: LoopProgram, secondary: LoopProgram, burst: int
    ) -> tuple[LoopReport, LoopReport]:
        """One interleave round: ``burst`` primary iterations, then one
        secondary iteration, both in SMT mode."""
        engine = self.core.engine
        round_primary = LoopReport()
        for _ in range(burst):
            round_primary.add_iteration(engine.run_iteration(primary, thread=0, smt_active=True))
        cost = engine.run_iteration(secondary, thread=1, smt_active=True)
        return round_primary, cost.to_report()

    def _interleave(
        self, primary: LoopProgram, secondary: LoopProgram, ratio: int, exact: bool
    ) -> _Prefix:
        """The simulated prefix: interleave rounds until both threads'
        round cycles repeat with period 1 or 2 (or the simulation limit).

        Trip counts enter only through the limit and the bursts, so a
        prefix that reached a steady state after ``r`` full-burst rounds
        is the prefix of every run with the same bodies and ratio, at
        least ``r * ratio`` primary and more than ``r`` secondary
        iterations.
        """
        engine = self.core.engine
        total_rounds = secondary.iterations
        primary_left = primary.iterations
        primary_report = LoopReport()
        secondary_report = LoopReport()
        history: list[tuple] = []
        rounds_done = 0
        limit = total_rounds if exact else min(total_rounds, self.MAX_SIMULATED_ROUNDS)
        steady = False
        while rounds_done < limit:
            round_primary, round_secondary = self._round(
                primary, secondary, min(ratio, primary_left)
            )
            primary_left -= round_primary.iterations
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
                steady = True
                break
        full = steady and primary_report.iterations == rounds_done * ratio
        return _Prefix(
            steady,
            (rounds_done * ratio, rounds_done + 1) if full else None,
            (_report_values(primary_report), _report_values(secondary_report)),
            self._repeats(round_primary, round_secondary) if steady else None,
        )

    @staticmethod
    def _repeats(round_primary: LoopReport, round_secondary: LoopReport) -> tuple:
        """What the finish extrapolates from a round: the primary's
        :func:`_terms`, its burst and the secondary's terms."""
        return (
            _terms(None, round_primary),
            round_primary.iterations,
            _terms(None, round_secondary),
        )

    def _finish(
        self,
        primary: LoopProgram,
        secondary: LoopProgram,
        ratio: int,
        exact: bool,
        prefix: _Prefix,
    ) -> tuple[LoopReport, LoopReport]:
        """The rest of a run after its simulated prefix: extrapolate the
        remaining rounds via :func:`_extend`, drain the primary's leftover
        iterations, charge both loop exits.  ``prefix`` is only read."""
        engine = self.core.engine
        primary_values, secondary_values = prefix.reports
        repeats = prefix.last
        remaining = secondary.iterations - secondary_values[_ITERATIONS]
        primary_left = primary.iterations - primary_values[_ITERATIONS]
        if remaining > 0 and not prefix.steady:
            # Hit MAX_SIMULATED_ROUNDS without period-1/2 convergence: run
            # one more live round and repeat it for the rest.
            round_primary, round_secondary = self._round(
                primary, secondary, min(ratio, primary_left)
            )
            primary_left -= round_primary.iterations
            primary_values = _report_values(LoopReport(*primary_values).merge(round_primary))
            secondary_values = _report_values(
                LoopReport(*secondary_values).merge(round_secondary)
            )
            repeats = self._repeats(round_primary, round_secondary)
            remaining -= 1
        if remaining > 0:
            primary_terms, burst, secondary_terms = repeats
            secondary_values = _extend(secondary_values, secondary_terms, remaining, False)
            # The primary side must never extrapolate past its own
            # iteration budget (the last simulated round's burst may
            # exceed what remains when the interleave ratio rounds).
            if burst > 0 and primary_left > 0:
                full_rounds = min(remaining, primary_left // burst)
                if full_rounds > 0:
                    primary_values = _extend(primary_values, primary_terms, full_rounds, False)
                    primary_left -= full_rounds * burst
        primary_report = LoopReport(*primary_values)
        secondary_report = LoopReport(*secondary_values)

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
