"""Tests for SMT execution: the DSB partitioning experiment (Figure 2)
and cross-thread interference mechanics."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.frontend.engine import FrontendEngine, LoopReport
from repro.isa.blocks import DSB_SETS
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226, XEON_E2288G
from tests.test_run_memo import BODIES


def swept_mite_uops(machine: Machine, swept_set: int, iterations: int = 2000) -> int:
    """Run the Figure 2 workload: thread 1 fixed at set 1, thread 0 swept."""
    machine.reset()
    layout = machine.layout()
    fixed = LoopProgram(layout.chain(1, 8), iterations)
    swept = LoopProgram(layout.chain(swept_set, 8, first_slot=100), iterations)
    result = machine.run_smt(swept, fixed)
    return result.primary.uops_mite


class TestFigure2Partitioning:
    """With two threads the DSB is set-partitioned: a thread's addresses
    whose addr[9:5] differ by 16 collide with each other — and with the
    sibling's same-folded-set lines."""

    def test_conflicting_sets_show_mite_traffic(self):
        machine = Machine(GOLD_6226, seed=2)
        # Sweeping set 1 and 17 collides with the fixed thread's set 1.
        assert swept_mite_uops(machine, 1) > 10_000
        assert swept_mite_uops(machine, 17) > 10_000

    def test_non_conflicting_sets_quiet(self):
        machine = Machine(GOLD_6226, seed=2)
        assert swept_mite_uops(machine, 5) < 1_000
        assert swept_mite_uops(machine, 21) < 1_000

    def test_single_thread_no_mod16_conflicts(self):
        """Figure 2b: alone, a thread gets all 32 sets."""
        machine = Machine(GOLD_6226, seed=2)
        layout = machine.layout()
        # 8 blocks in set 1 plus 8 blocks in set 17, one thread.
        blocks = layout.chain(1, 8) + layout.chain(17, 8, first_slot=100)
        report = machine.run_loop(LoopProgram(blocks, 2000))
        # Only the cold fill goes through MITE (the fill-streak throttle
        # spreads a 16-window cold fill over two iterations); there is no
        # steady-state conflict traffic.
        assert report.uops_mite <= 2 * 16 * 5
        assert report.uops_dsb > 0.95 * report.total_uops


class TestSmtExecutor:
    """The two-thread interleave, :meth:`FrontendEngine.run_smt`, as
    :meth:`Machine.run_smt` drives it."""

    def test_rejects_single_thread_machine(self):
        machine = Machine(XEON_E2288G)
        program = LoopProgram(machine.layout().chain(3, 2), 5)
        with pytest.raises(ConfigurationError):
            machine.run_smt(program, program)

    def test_reports_cover_both_threads(self):
        machine = Machine(GOLD_6226, seed=2)
        layout = machine.layout()
        primary = LoopProgram(layout.chain(3, 4), 100)
        secondary = LoopProgram(layout.chain(9, 4, first_slot=50), 10)
        result = machine.run_smt(primary, secondary)
        assert result.primary.total_uops == 100 * 20
        assert result.secondary.total_uops == 10 * 20
        assert result.total_cycles >= max(result.primary.cycles, result.secondary.cycles)

    def test_exact_and_extrapolated_agree(self):
        machine_a = Machine(GOLD_6226, seed=2)
        machine_b = Machine(GOLD_6226, seed=2)
        layout = machine_a.layout()

        def programs(machine):
            lay = machine.layout()
            return (
                LoopProgram(lay.chain(3, 6), 1000),
                LoopProgram(lay.chain(3, 3, first_slot=6), 100),
            )

        exact = machine_a.run_smt(*programs(machine_a), exact=True)
        fast = machine_b.run_smt(*programs(machine_b))
        assert fast.primary.cycles == pytest.approx(exact.primary.cycles, rel=0.02)
        assert fast.primary.uops_mite == pytest.approx(exact.primary.uops_mite, rel=0.05)

    @pytest.mark.parametrize("primary_iterations", [3000, 2995, 3005])
    def test_rounds_past_the_simulation_limit_are_counted(
        self, monkeypatch, primary_iterations
    ):
        """With no cycle found the interleave stops simulating after
        ``MAX_SIMULATED_ROUNDS`` rounds, runs one more live round and
        repeats it for the rest of the full rounds: every iteration of
        both threads is counted, and the primary never runs past its own
        budget.  A warm-up longer than the limit finds no cycle.  At
        2995/300 (ratio 10) only 299 rounds are full: the 300th has a
        5-iteration burst and runs live, one more simulated round."""
        monkeypatch.setattr(
            FrontendEngine, "MIN_WARMUP_ROUNDS", FrontendEngine.MAX_SIMULATED_ROUNDS + 1
        )
        machine = Machine(GOLD_6226, seed=2)
        layout = machine.layout()
        primary = LoopProgram(layout.chain(3, 6), primary_iterations)
        secondary = LoopProgram(layout.chain(3, 3, first_slot=6), 300)
        result = machine.run_smt(primary, secondary)
        assert result.primary.iterations == primary_iterations
        assert result.secondary.iterations == 300
        assert result.secondary.total_uops == 300 * secondary.uops_per_iteration
        short_rounds = 1 if primary_iterations < 3000 else 0
        assert (
            result.secondary.simulated_iterations
            == FrontendEngine.MAX_SIMULATED_ROUNDS + 1 + short_rounds
        )

    def test_smt_slows_down_receiver(self):
        """Concurrent sibling activity inflates frontend delivery cost."""
        machine = Machine(GOLD_6226, seed=2)
        layout = machine.layout()
        solo_prog = LoopProgram(layout.chain(3, 6), 1000)
        solo = machine.run_loop(solo_prog)
        machine.reset()
        shared = machine.run_smt(
            LoopProgram(layout.chain(3, 6), 1000),
            LoopProgram(layout.chain(3, 3, first_slot=6), 100),
        )
        assert shared.primary.cycles > solo.cycles * 1.2

    def test_same_set_sender_evicts_receiver(self):
        """The MT eviction channel's mechanism (Section IV-A).

        Every sender encode burst evicts the receiver's same-set lines,
        forcing MITE redelivery and an LSD flush; the receiver re-captures
        between bursts, so the signature is periodic MITE traffic plus a
        flush per burst rather than continuous thrash.
        """
        machine = Machine(GOLD_6226, seed=2)
        layout = machine.layout()
        result = machine.run_smt(
            LoopProgram(layout.chain(3, 6), 1000),
            LoopProgram(layout.chain(3, 3, first_slot=6), 100),
        )
        assert result.primary.uops_mite > 2000  # ~3 blocks per encode burst
        assert result.primary.lsd_flushes > 50  # one flush per burst

    def test_different_set_sender_mild(self):
        machine = Machine(GOLD_6226, seed=2)
        layout = machine.layout()
        result = machine.run_smt(
            LoopProgram(layout.chain(3, 6), 1000),
            LoopProgram(layout.chain(9, 3, first_slot=6), 100),
        )
        # Folded sets 3 vs 9: no collision, only repartition cold misses.
        assert result.primary.uops_mite < 1000


#: SMT pair shapes (primary/secondary trip counts).  In the first five
#: every interleave burst is full; 990/100 and 5000/300 leave the
#: secondary rounds after the primary has run out (ratio 10 and 17), and
#: 7/40 leaves 33 of them (ratio 1).
SMT_SHAPES = (
    (40, 40), (400, 40), (80, 40), (1000, 100), (400, 400),
    (990, 100), (7, 40), (5000, 300),
)


@pytest.mark.parametrize("shape", SMT_SHAPES, ids=lambda s: f"{s[0]}/{s[1]}")
def test_extrapolated_smt_equals_exact(shape):
    """Extrapolating the rounds after a repeated frontend state gives
    the exact run's reports, and leaves the exact run's frontend state
    in every DSB set, for every pair of the run-memo bodies under LRU.

    Regressions: rounds keyed on their cycles alone, repeating only the
    last round, let ``BODIES[4]`` (window-spanning blocks, the
    Section IV-B mechanism) on both threads settle on a round that
    alternates with its neighbour: 96 secondary LSD flushes against 49
    at 1000/100.  Rounds keyed on their reports drained a primary that
    ran out before the secondary single-threaded, where the exact run
    stays in SMT mode: 75 of the pairs at 990/100, 7/40 and 5000/300
    differed."""
    primary_iterations, secondary_iterations = shape
    extrapolated, exact = Machine(GOLD_6226), Machine(GOLD_6226)
    every_set = tuple(range(DSB_SETS))
    for primary_body in BODIES:
        for secondary_body in BODIES:
            primary = LoopProgram(primary_body, primary_iterations)
            secondary = LoopProgram(secondary_body, secondary_iterations)
            extrapolated.reset()
            exact.reset()
            got = extrapolated.run_smt(primary, secondary)
            want = exact.run_smt(primary, secondary, exact=True)
            pair = (BODIES.index(primary_body), BODIES.index(secondary_body))
            for ours, theirs in ((got.primary, want.primary), (got.secondary, want.secondary)):
                for field in dataclasses.fields(LoopReport):
                    name = field.name
                    if name == "simulated_iterations":
                        continue
                    if name in ("cycles", "energy_nj"):
                        assert getattr(ours, name) == pytest.approx(
                            getattr(theirs, name), rel=1e-9, abs=0
                        ), (pair, name)
                    else:
                        assert getattr(ours, name) == getattr(theirs, name), (pair, name)
            assert extrapolated.engine._state(every_set) == exact.engine._state(every_set), pair
