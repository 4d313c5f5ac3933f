"""The engine's whole-run memo replays exactly what interpretation does.

:meth:`FrontendEngine._memo_run` keys a loop run on its arguments plus
the frontend state it reads, and on a repeat re-applies the recorded
effect instead of interpreting.  The checks here drive two identical
machines through the same sequence of runs and state changes; one of
them records no run, so it always interprets.  After every step the
reports and every piece of modelled state must be identical, bit for
bit.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.frontend.engine as engine_module
from repro.channels.eviction import MtEvictionChannel
from repro.frontend.engine import SIM_LATENCY_EDGES, FrontendEngine
from repro.frontend.params import FrontendParams
from repro.isa.blocks import MixBlock, filler_block, lcp_block, standard_mix_block
from repro.isa.instructions import jmp_rel8, nop
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.obs import MetricsRegistry, use_registry
from repro.spectre.attack import SpectreV1Attack
from repro.spectre.channels import FrontendDsbChannel

LAYOUT = BlockChainLayout()


def _aligned(sets, slot):
    return tuple(standard_mix_block(LAYOUT.block_address(s, slot)) for s in sets)


def _one_set(dsb_set, slots):
    return tuple(standard_mix_block(LAYOUT.block_address(dsb_set, s)) for s in slots)


#: Loop bodies sharing a handful of DSB sets, so runs disturb each
#: other.  Sets 0 and 16 fold together in SMT mode.
BODIES = (
    # aligned, LSD-capturable
    _aligned((0, 1, 2, 3), 0),
    # aligned in sets that fold onto the first body's under SMT
    _aligned((16, 17, 18), 1),
    # eight blocks in one set: exactly fills it
    _one_set(1, range(2, 10)),
    # ten blocks in one set: over capacity, evicts every iteration
    _one_set(2, range(10, 20)),
    # misaligned (window-spanning) blocks
    tuple(
        standard_mix_block(LAYOUT.block_address(s, 20, misaligned=True))
        for s in (0, 16, 3)
    ),
    # mixed and pure LCP windows beside plain ones
    _aligned((1, 17), 21)
    + (
        lcp_block(LAYOUT.block_address(2, 22), lcp_sets=4, mixed=True),
        lcp_block(LAYOUT.block_address(18, 23), lcp_sets=4, mixed=False),
    ),
    # a window too dense to cache (26 uops) beside a plain one
    (MixBlock(LAYOUT.block_address(3, 24), (nop(),) * 25 + (jmp_rel8(),)),)
    + _aligned((4,), 24),
)

#: Trip counts below, at and above the lengths of simulated prefixes
#: (4 to 8 iterations), and two long ones.  2_001 leaves a
#: one-iteration single-thread drain in SMT runs against 8 or 40
#: secondary iterations.
ITERATIONS = (1, 3, 4, 5, 6, 7, 8, 10, 40, 2_001)
#: Secondary trip counts of SMT pairs that share an interleave ratio:
#: up to MIN_WARMUP_ROUNDS (6) no run has rounds left to extrapolate.
ROUNDS = (2, 6, 7, 8, 9, 12, 40)


def _loop(body, iterations=3, thread=0, smt_active=False, exact=False) -> tuple:
    return ("run_loop", LoopProgram(body, iterations), thread, smt_active, exact)


def _smt(primary, secondary, exact=False) -> tuple:
    return ("run_smt", primary, secondary, exact)


def _sweep(bodies, iterations=3, thread=0, smt_active=False) -> tuple:
    programs = tuple(LoopProgram(body, iterations) for body in bodies)
    return ("run_loops", programs, thread, smt_active)


def _variant(call: tuple, field: int, programs: list[LoopProgram]) -> tuple:
    """``call`` with one argument changed: the memo must tell them apart."""
    values = list(call)
    current = values[field]
    if isinstance(current, LoopProgram):
        others = [p for p in programs if p != current] or [current]
        values[field] = others[0]
    elif isinstance(current, tuple):
        # A sweep's programs: one fewer, or the only one twice.
        values[field] = current[1:] or current * 2
    elif isinstance(current, bool):
        values[field] = not current
    else:
        values[field] = 1 - current  # thread
    return tuple(values)


@st.composite
def _scenarios(draw) -> tuple[list[tuple], list[tuple]]:
    """A few run calls and a random op sequence over them.

    Drawing the calls first, from at most two bodies at one or two trip
    counts each, makes runs repeat, so entry states recur and the memo
    replays; each base call also brings variants that differ from it in
    one argument.  Ops name calls by index; a run op's last element is
    how often it repeats.
    """
    bodies = draw(st.lists(st.sampled_from(range(len(BODIES))), min_size=1, max_size=2))
    programs = [
        LoopProgram(BODIES[body], iterations)
        for body in bodies
        for iterations in draw(
            st.lists(st.sampled_from(ITERATIONS), min_size=1, max_size=3, unique=True)
        )
    ]
    program = st.sampled_from(programs)
    run_loop = st.tuples(
        st.just("run_loop"), program, st.integers(0, 1), st.booleans(), st.booleans()
    )
    # SMT pairs of two drawn bodies at one or two interleave ratios and
    # several secondary counts; the primary's count is off the ratio by
    # -1, 0 or +1 iterations, which leaves a drain or none.  Ratio 1 also
    # takes primaries far shorter than the secondary.
    primary_body, secondary_body = (BODIES[draw(st.sampled_from(bodies))] for _ in "ps")
    pairs = [
        (LoopProgram(primary_body, max(1, ratio * rounds + skew)), LoopProgram(secondary_body, rounds))
        for ratio in draw(st.lists(st.sampled_from((1, 2, 10)), min_size=1, max_size=2, unique=True))
        for rounds, skew in draw(
            st.lists(st.tuples(st.sampled_from(ROUNDS), st.sampled_from((-1, 0, 1))), min_size=1, max_size=3)
        )
    ] + [(LoopProgram(primary_body, 3), LoopProgram(secondary_body, 40))]
    run_smt = st.one_of(
        st.tuples(st.just("run_smt"), program, program, st.booleans()),
        st.tuples(st.sampled_from(pairs), st.booleans()).map(lambda pe: ("run_smt", *pe[0], pe[1])),
    )
    run_loops = st.tuples(
        st.just("run_loops"),
        st.lists(program, min_size=1, max_size=4).map(tuple),
        st.integers(0, 1),
        st.booleans(),
    )
    calls = []
    kinds = st.one_of(run_loop, run_smt, run_loops)
    for base in draw(st.lists(kinds, min_size=1, max_size=2)):
        calls.append(base)
        fields = st.integers(1, len(base) - 1)
        for field in draw(st.lists(fields, max_size=2, unique=True)):
            calls.append(_variant(base, field, programs))
    windows = [block.windows[0] for body in bodies for block in BODIES[body]]
    call = st.integers(0, len(calls) - 1)
    run = st.tuples(st.just("run"), call, st.integers(1, 4))
    op = st.one_of(
        run,
        run,
        run,
        st.tuples(st.just("iterate"), call),
        st.tuples(st.just("invalidate"), st.integers(0, 1), st.sampled_from(windows)),
        st.tuples(st.just("flush_thread"), st.integers(0, 1)),
        st.tuples(st.just("flush_l1i"), st.sampled_from(windows)),
        st.tuples(st.just("set_lsd_enabled"), st.booleans()),
        st.tuples(st.just("reset")),
    )
    return calls, draw(st.lists(op, min_size=10, max_size=40))


def _run(machine: Machine, call: tuple) -> tuple:
    """Make one run call; returns its reports."""
    if call[0] == "run_loop":
        _, program, thread, smt_active, exact = call
        exact = exact and program.iterations <= 40  # keep exact runs cheap
        return (machine.run_loop(program, thread, smt_active, exact=exact),)
    if call[0] == "run_loops":
        _, programs, thread, smt_active = call
        return machine.run_loops(programs, thread, smt_active)
    _, primary, secondary, exact = call
    exact = exact and primary.iterations <= 401 and secondary.iterations <= 40
    result = machine.run_smt(primary, secondary, exact=exact)
    return (result.primary, result.secondary)


def _change(machine: Machine, calls: list[tuple], op: tuple) -> None:
    """Apply one op that is not a whole run."""
    kind = op[0]
    engine = machine.engine
    if kind == "iterate":
        # One bare iteration, as the trace recorder drives the engine:
        # it can leave an LSD mid-stream, a delivery path set or a
        # penalty pending for the next run to start from.
        call = calls[op[1]]
        if call[0] == "run_loop":
            engine.run_iteration(call[1], call[2], call[3])
        elif call[0] == "run_loops":
            engine.run_iteration(call[1][0], call[2], call[3])
        else:
            engine.run_iteration(call[2], 1, True)
    elif kind == "invalidate":
        engine.dsb.invalidate(op[1], op[2])
    elif kind == "flush_thread":
        engine.dsb.flush_thread(op[1])
    elif kind == "flush_l1i":
        # The memo does not key on the L1I: a replay must re-fetch a line
        # its run fetched that is no longer resident.
        machine.l1i.flush_line(op[1])
    elif kind == "set_lsd_enabled":
        machine.set_lsd_enabled(op[1])
    else:
        machine.reset()


def _reports(reports) -> tuple:
    return tuple(
        tuple(
            value.hex() if isinstance(value, float) else value
            for value in dataclasses.astuple(report)
        )
        for report in reports
    )


def _state(machine: Machine) -> tuple:
    engine = machine.engine
    dsb = engine.dsb
    l1i = machine.l1i
    return (
        tuple(tuple(s.items()) for s in dsb._sets),
        tuple(dsb._ways),
        dataclasses.astuple(dsb.stats),
        tuple(
            (
                lsd.enabled,
                lsd.state,
                lsd._candidate,
                lsd._qualify_streak,
                lsd._loop_windows,
                dataclasses.astuple(lsd.stats),
            )
            for lsd in engine.lsds.values()
        ),
        tuple((t, v.hex()) for t, v in engine._pending_penalty.items()),
        dict(engine._pending_flushes),
        dict(engine._last_path),
        tuple(l1i.lru_stack(i) for i in range(l1i.sets)),
        dataclasses.astuple(l1i.stats),
    )


class _Forgetful(dict):
    """A run memo that records nothing, so every run is interpreted."""

    def __setitem__(self, key, value) -> None:
        pass


def _check(calls: list[tuple], ops: list[tuple], params=FrontendParams()) -> None:
    memo = Machine(GOLD_6226, params=params)
    interp = Machine(GOLD_6226, params=params)
    # Clearing the memo before each call would not be enough: a sweep
    # could replay its own earlier runs.
    interp.engine._runs = _Forgetful()
    for op in ops:
        if op[0] != "run":
            _change(memo, calls, op)
            _change(interp, calls, op)
            assert _state(memo) == _state(interp), op
            continue
        call = calls[op[1]]
        for _ in range(op[2]):
            got = _run(memo, call)
            want = _run(interp, call)
            assert _reports(got) == _reports(want), call
            assert _state(memo) == _state(interp), call


class TestReplayEqualsInterpretation:
    @given(scenario=_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_random_sequences(self, scenario):
        _check(*scenario)

    # Entry states random sequences rarely reach: each must not replay a
    # run recorded from a state that differs only in what is named.
    def test_thread(self):
        calls = [_loop(BODIES[0]), _loop(BODIES[0], thread=1)]
        _check(calls, [("run", 0, 3), ("run", 1, 1)])

    def test_smt_primary(self):
        a, b = LoopProgram(BODIES[0], 3), LoopProgram(BODIES[0], 8)
        secondary = LoopProgram(BODIES[1], 3)
        calls = [_smt(a, secondary), _smt(b, secondary)]
        _check(calls, [("run", 0, 3), ("run", 1, 1)])

    def test_smt_secondary_sets(self):
        primary = LoopProgram(BODIES[0], 3)
        secondary = LoopProgram(_aligned((6, 7), 1), 3)
        window = secondary.body[0].windows[0]
        ops = [("run", 0, 3), ("invalidate", 1, window), ("run", 0, 1)]
        _check([_smt(primary, secondary)], ops)

    def test_drain_sets(self):
        """The primary's leftover iterations run single-threaded, in
        sets (16-18) its SMT plan (folded to 0-2) never touches; a
        single-thread loop in set 16 changes the drain's hit order and
        nothing else.  With the LSD on, the drain would stream and never
        reach the DSB."""
        primary, secondary = LoopProgram(BODIES[1], 40), LoopProgram(BODIES[0], 3)
        calls = [_smt(primary, secondary), _loop(_aligned((16,), 5))]
        ops = [("set_lsd_enabled", False), ("run", 0, 3), ("run", 1, 1), ("run", 0, 1)]
        _check(calls, ops)

    def test_prefix_counts(self):
        """One body from one entry state, at counts below, at and above
        the length of the prefix the first run records (4 to 8
        iterations): a shorter run must not replay it, and neither may an
        ``exact`` run."""
        calls = [_loop(BODIES[0], n) for n in (40, *range(1, 13), 2_001)]
        calls.append(_loop(BODIES[0], 40, exact=True))
        ops = [op for i in range(len(calls)) for op in (("reset",), ("run", i, 2))]
        _check(calls, ops)

    def test_smt_prefix_counts(self):
        """SMT pairs of two bodies from one entry state.  Each first run
        at a ratio whose bursts stay full records a prefix of at least six
        rounds; pairs at that ratio with fewer secondary rounds, or (at
        ratio 1) too short a primary, must not replay it, nor may pairs at
        another ratio."""
        pairs = [(400, 40), *((10 * n + skew, n) for n in range(1, 13) for skew in (-1, 0, 1))]
        # (3, 40) runs out of primary iterations inside its prefix, so it
        # must record whole: its prefix is not that of (40, 40).
        pairs += [(80, 40), (81, 9), (3, 40), (40, 40), *((n, 40) for n in (5, 6, 7, 8, 9))]
        calls = [
            _smt(LoopProgram(BODIES[0], p), LoopProgram(BODIES[1], s), exact)
            for p, s in pairs
            for exact in (False, True)
            if not exact or p <= 121
        ]
        ops = [op for i in range(len(calls)) for op in (("reset",), ("run", i, 2))]
        _check(calls, ops)

    def test_smt_secondary_bound(self):
        """A secondary count below a prefix's rounds must not replay it,
        even where the primary count would fit: these two bodies at
        ratio 1 settle by round 7, so a 7-iteration primary fits the
        first pair's prefix while a 5- or 6-round secondary does not."""
        pairs = [(60, 60), (7, 5), (7, 6), (8, 6), (7, 8), (9, 8)]
        calls = [_smt(LoopProgram(BODIES[0], p), LoopProgram(BODIES[4], s)) for p, s in pairs]
        ops = [op for i in range(len(calls)) for op in (("reset",), ("run", i, 1))]
        _check(calls, ops)

    def test_lru_order(self):
        """Equal set contents in a different LRU order pick a different
        victim."""
        calls = [
            _loop(_one_set(5, range(0, 4))),
            _loop(_one_set(5, range(4, 8))),
            _loop(_one_set(5, (8,))),
        ]
        ops = [("run", 0, 1), ("run", 1, 1), ("run", 2, 1), ("reset",)]
        _check(calls, ops + [("run", 1, 1), ("run", 0, 1), ("run", 2, 1)])

    def test_line_contents(self):
        """Two bodies at one address cache different lines under the same
        key (JIT-recycled code)."""
        base = LAYOUT.block_address(6, 0)
        calls = [
            _loop((standard_mix_block(base),)),
            _loop((filler_block(base, 3),)),
        ]
        _check(calls, [("run", 0, 2), ("reset",), ("run", 1, 2), ("run", 0, 1)])


    def test_lsd_candidate(self):
        """One bare iteration leaves a different loop as the candidate."""
        calls = [_loop(_aligned((5, 6), 3)), _loop(_aligned((8, 9), 3))]
        ops = [("run", 1, 1), ("run", 0, 1), ("iterate", 0), ("run", 0, 1)]
        _check(calls, ops + [("iterate", 1), ("run", 0, 1)])

    def test_lsd_streak(self):
        """Three qualifying iterations to capture: one or two bare ones
        leave the same candidate at different streaks."""
        calls = [_loop(_aligned((5, 6), 3))]
        ops = [("run", 0, 1), ("iterate", 0), ("run", 0, 1)]
        ops += [("iterate", 0), ("iterate", 0), ("run", 0, 1)]
        _check(calls, ops, FrontendParams(lsd_detect_iterations=3))

    def test_lsd_loop_windows_and_pending_flush(self):
        """Two bodies at one base address are one loop to the LSD, but
        the longer one streams two windows.  A sibling-thread run that
        evicts the second window flushes only the stream that holds it
        and leaves a penalty pending for thread 0's next run."""
        base = LAYOUT.block_address(6, 0)
        short = _loop((standard_mix_block(base),))
        long = _loop((filler_block(base, 12),))  # windows in sets 6 and 7
        evict = _loop(_one_set(7, range(10, 18)), thread=1)
        calls = [short, long, evict]
        ops = [("run", 1, 1), ("run", 0, 1), ("iterate", 0), ("iterate", 0), ("run", 2, 1)]
        ops += [("reset",), ("run", 1, 1), ("iterate", 1), ("iterate", 1), ("run", 2, 1)]
        # The same entry state as the last, without the pending flush.
        ops += [("run", 1, 1), ("reset",), ("run", 1, 1), ("iterate", 1)]
        ops += [("set_lsd_enabled", True), ("run", 2, 1), ("run", 1, 1)]
        # Again from the top: the sibling run that leaves the penalty
        # pending, and the run that pays it, now replay.
        ops += [("reset",), ("run", 1, 1), ("iterate", 1), ("iterate", 1)]
        ops += [("run", 2, 1), ("run", 1, 1)]
        _check(calls, ops)

    def test_sweep_after_its_runs(self):
        """A sweep whose runs were recorded one by one misses as a sweep,
        replays each run, and replays whole the next time round."""
        sweep = _sweep((BODIES[2], BODIES[3], BODIES[0]))
        singles = [("run_loop", program, 0, False, False) for program in sweep[1]]
        ops = [("run", 1, 1), ("run", 2, 1), ("run", 3, 1), ("reset",), ("run", 0, 3)]
        _check([sweep, *singles], ops + [("reset",), ("run", 0, 2)])

    def test_sweep_entry_state(self):
        """An evicted line or a pending LSD candidate changes the sweep."""
        sweep = _sweep((BODIES[0], _one_set(1, range(2, 10))), thread=1)
        window = BODIES[0][1].windows[0]
        ops = [("run", 0, 2), ("invalidate", 1, window), ("run", 0, 2)]
        _check([sweep], ops + [("iterate", 0), ("run", 0, 1)])

    def test_sweep_sets_per_thread(self):
        """Under SMT isolation each thread folds into its own half of the
        DSB, so one sweep touches different sets on each thread."""
        bodies = (BODIES[0], _one_set(1, range(2, 10)))
        calls = [_sweep(bodies, smt_active=True), _sweep(bodies, thread=1, smt_active=True)]
        ops = [("run", 0, 1), ("run", 1, 1), ("flush_thread", 1), ("run", 1, 1)]
        _check(calls, ops, FrontendParams(smt_isolation=True))

    def test_l1i_line_flushed_between_record_and_replay(self):
        """Every window of the ten-block body is fetched through MITE.
        Flushing one of its lines from the L1I leaves the DSB state, and
        so the memo key, as it was, so the repeat replays, but it must
        re-issue its fetches one by one; the flushed line misses again."""
        body = BODIES[3]
        registry = MetricsRegistry()
        calls = [_loop(body, 10), _loop(body, 40)]
        ops = [("run", 0, 2), ("flush_l1i", body[4].windows[0]), ("run", 0, 1)]
        ops += [("run", 1, 1), ("flush_l1i", body[0].windows[0]), ("run", 1, 2)]
        with use_registry(registry):
            _check(calls, ops)
        assert registry.counter("sim.l1i_replays", path="fetched").value >= 2
        assert registry.counter("sim.l1i_replays", path="resident").value >= 1

    def test_l1i_lines_move_in_order_of_last_fetch(self):
        """A pure-LCP window is fetched on every iteration; the plain
        block 4 KiB above it, in the same L1I set, only on the first,
        while it misses the DSB.  So the LCP window's line was fetched
        last and ends the run at MRU, although it was fetched first.  A
        DSB flush restores the entry state but not the L1I, so the
        repeat replays with every fetched line resident."""
        lcp = lcp_block(LAYOUT.block_address(2, 0), lcp_sets=16, mixed=False)
        program = LoopProgram((lcp,), 1)
        pure = next(a.window_addr for a in FrontendEngine().window_accesses(program) if a.pure_lcp)
        calls = [_loop((lcp, standard_mix_block(pure + 4096)), 10)]
        registry = MetricsRegistry()
        with use_registry(registry):
            _check(calls, [("run", 0, 1), ("flush_thread", 0), ("run", 0, 1)])
        assert registry.counter("sim.l1i_replays", path="resident").value == 1

    def test_smt_drain_prefix_then_whole(self):
        """2001 primary iterations against 40 secondary ones interleave
        at ratio 50 and leave a one-iteration single-thread drain.  From
        the entry state of a 4000/80 pair at the same ratio, the first
        such run replays that pair's prefix and finishes live, draining
        through ``run_loop``; the second replays whole, drain included."""
        primary, secondary = BODIES[0], BODIES[1]
        calls = [
            _smt(LoopProgram(primary, 4_000), LoopProgram(secondary, 80)),
            _smt(LoopProgram(primary, 2_001), LoopProgram(secondary, 40)),
        ]
        ops = [("run", 0, 1), ("reset",), ("run", 1, 1), ("reset",), ("run", 1, 1)]
        registry = MetricsRegistry()
        with use_registry(registry):
            _check(calls, ops)
        # One prefix replay, one whole replay; a second prefix replay
        # would replay the drain's record too.
        assert registry.counter("sim.replays").value == 2

    def test_sibling_thread_runs(self):
        """Runs on thread 0 around a run on thread 1 that thrashes one
        set on every iteration."""
        calls = [_loop(_aligned((5, 6), 3)), _loop(BODIES[3], thread=1)]
        _check(calls, [("run", 0, 2), ("run", 1, 1), ("run", 0, 1)])


class TestMemoBookkeeping:
    def test_repeats_are_replayed_and_counted(self):
        program = LoopProgram(BODIES[0], 40)
        registry = MetricsRegistry()
        machine = Machine(GOLD_6226)
        with use_registry(registry):
            reports = [machine.run_loop(program, exact=True) for _ in range(4)]
        assert registry.counter("sim.replays").value >= 1
        # Each replay hands out its own report object.
        assert len({id(r) for r in reports}) == len(reports)
        reports[-1].cycles += 1.0
        again = machine.run_loop(program, exact=True)
        assert again.cycles == reports[-2].cycles

    @pytest.mark.parametrize("smt", [False, True])
    def test_prefix_replays_hand_out_their_own_reports(self, smt):
        """A run that replays a simulated prefix finishes live into new
        report objects; changing one changes no later run's."""
        primary, secondary = LoopProgram(BODIES[0], 400), LoopProgram(BODIES[1], 40)
        registry = MetricsRegistry()
        machine = Machine(GOLD_6226)

        def run():
            if smt:
                result = machine.run_smt(primary, secondary)
                return result.primary, result.secondary
            return (machine.run_loop(primary),)

        with use_registry(registry):
            results = [run() for _ in range(4)]
        assert registry.counter("sim.replays").value >= 1
        reports = [report for result in results for report in result]
        assert len({id(report) for report in reports}) == len(reports)
        for report in results[-1]:
            report.cycles += 1.0
            report.iterations += 1
        again = run()
        assert _reports(again) == _reports(results[-2])

    def test_sweeps_count_loop_runs(self):
        """``sim.points`` and ``sim.replays`` count loop runs: a replayed
        32-program sweep adds 32 to each, and a missed sweep counts only
        the runs it makes, not itself too.  ``sim.latency`` observes once
        per ``run_loop`` call and once per replayed sweep."""
        programs = tuple(LoopProgram(_one_set(s, range(8)), 3) for s in range(32))
        registry = MetricsRegistry()
        machine = Machine(GOLD_6226)

        def counts():
            return (
                registry.counter("sim.points").value,
                registry.counter("sim.replays").value,
                registry.histogram("sim.latency", edges=SIM_LATENCY_EDGES).count,
            )

        def step(run) -> tuple:
            before = counts()
            run()
            return tuple(after - b for after, b in zip(counts(), before))

        with use_registry(registry):
            # Each run is new: interpreted and recorded one by one.
            assert step(lambda: [machine.run_loop(p) for p in programs]) == (32, 0, 32)
            machine.reset()
            # A new sweep from the same entry state: 32 single replays.
            assert step(lambda: machine.run_loops(programs)) == (32, 32, 32)
            # From the state it leaves: every run interpreted again.
            assert step(lambda: machine.run_loops(programs)) == (32, 0, 32)
            # The same entry state once more: the whole sweep replays.
            assert step(lambda: machine.run_loops(programs)) == (32, 32, 1)

    def test_table7_frontend_attack_keeps_replaying(self):
        """A memo key that silently stops matching changes no result, only
        the speed.  One seeded 1-byte Table VII frontend-dsb attack
        replays about 90% of its loop runs and 26 of its 32 prime and
        probe sweeps whole; each whole replay adds 32 ``sim.points`` but
        one ``sim.latency`` observation."""
        registry = MetricsRegistry()
        with use_registry(registry):
            machine = Machine(GOLD_6226, seed=1414)
            SpectreV1Attack(
                machine, FrontendDsbChannel(machine), b"K", attempts_per_chunk=8
            ).run()
        points = registry.counter("sim.points").value
        latency = registry.histogram("sim.latency", edges=SIM_LATENCY_EDGES)
        assert registry.counter("sim.replays").value / points >= 0.85
        assert (points - latency.count) // 31 >= 22

    def test_mt_eviction_transmit_keeps_replaying(self, monkeypatch):
        """A slipped MT bit runs the channel's two loops at new trip
        counts, which replay a recorded simulated prefix and finish live.
        One seeded 64-bit transmit of alternating bits (slips happen at
        bit edges) interprets 5 of its 53 SMT runs (a memo keyed on the
        trip counts interprets 23), finishes 24 of them live (the others
        replay whole) and replays 102 loop runs against 60 ``sim.points``."""
        registry = MetricsRegistry()
        interleaved, secondaries = [], set()
        interleave, run_smt = FrontendEngine._interleave, FrontendEngine.run_smt

        def counting_interleave(self, *args):
            interleaved.append(args)
            return interleave(self, *args)

        def counting_run_smt(self, primary, secondary, exact=False):
            secondaries.add(secondary.iterations)
            return run_smt(self, primary, secondary, exact)

        monkeypatch.setattr(FrontendEngine, "_interleave", counting_interleave)
        monkeypatch.setattr(FrontendEngine, "run_smt", counting_run_smt)
        with use_registry(registry):
            machine = Machine(GOLD_6226, seed=7)
            MtEvictionChannel(machine).transmit([0, 1] * 32)
        assert len(secondaries) >= 5  # slips ran the loops at new counts
        points = registry.counter("sim.points").value
        assert registry.counter("sim.replays").value / points >= 1.4
        assert len(interleaved) <= 8

    def test_run_after_a_mite_streak_replays(self):
        """How the previous run's windows were delivered is not part of
        the key.  X and P are DSB-resident bodies in two sets; Y's ten
        plain windows thrash a third set, so its last iteration ends in a
        run of MITE deliveries.  P after Y enters the state P after P
        entered, and replays that run's record: the first time its
        prefix, after which it may record itself whole; the second time
        that whole record, which extrapolates nothing and adds no record."""
        x, p, y = (
            LoopProgram(body, 40)
            for body in (_one_set(6, range(4)), _one_set(7, range(4)), _one_set(8, range(10, 20)))
        )
        registry = MetricsRegistry()
        machine = Machine(GOLD_6226)
        extrapolated = registry.counter("sim.iterations", mode="extrapolated")
        added, tails = [], []
        with use_registry(registry):
            for program in (x, p, p):
                machine.run_loop(program)
            for _ in range(2):
                assert machine.run_loop(y).uops_dsb == 0  # every window from MITE
                replays = registry.counter("sim.replays").value
                records = len(machine.engine._runs)
                before = extrapolated.value
                machine.run_loop(p)
                assert registry.counter("sim.replays").value == replays + 1
                added.append(len(machine.engine._runs) - records)
                tails.append(extrapolated.value - before)
        assert added[0] <= 1 and tails[0] > 0
        assert added[1] == 0 and tails[1] == 0

    def test_memo_is_bounded_per_engine(self, monkeypatch):
        monkeypatch.setattr(engine_module, "RUN_MEMO_LIMIT", 3)
        machine = Machine(GOLD_6226)
        for iterations in (1, 2, 3, 4, 5, 6):
            machine.run_loop(LoopProgram(BODIES[0], iterations))
            assert len(machine.engine._runs) <= 3
        assert not Machine(GOLD_6226).engine._runs

    def test_body_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(engine_module, "BODY_TABLE_LIMIT", 3)
        monkeypatch.setattr(engine_module, "_BODIES", {})
        for body in BODIES:
            Machine(GOLD_6226).run_loop(LoopProgram(body, 3))
            assert 1 <= len(engine_module._BODIES) <= 3

    @pytest.mark.parametrize("drops", [1, 2])
    def test_full_table_drop_survives_a_race(self, drops):
        """Another thread may drop the oldest entry, or every entry,
        between the size check and the drop."""

        class Raced(dict):
            def __iter__(self):
                # The keys as they were when the other thread dropped its.
                keys = list(dict.__iter__(self))
                for key in keys[:drops]:
                    dict.__delitem__(self, key)
                return iter(keys)

        table = Raced(first=1, second=2)
        engine_module._put(table, "new", 3, 2)
        assert list(dict.items(table)) == [("second", 2), ("new", 3)][drops - 1:]

    def test_threads_filling_the_body_table(self, monkeypatch):
        """Four threads build machines and run every body at once, with
        thread switches as often as the interpreter allows: no drop
        raises, and the table ends at most one entry per extra thread
        over its limit."""
        monkeypatch.setattr(engine_module, "BODY_TABLE_LIMIT", 3)
        monkeypatch.setattr(engine_module, "_BODIES", {})
        errors = []

        def fill(offset):
            try:
                for i in range(2 * len(BODIES)):
                    body = BODIES[(i + offset) % len(BODIES)]
                    Machine(GOLD_6226).run_loop(LoopProgram(body, 3))
            except Exception as error:  # reported below
                errors.append(error)

        threads = [threading.Thread(target=fill, args=(offset,)) for offset in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(engine_module._BODIES) <= 3 + len(threads) - 1


class TestPlanTables:
    """Engines with equal params share each body's plans; each engine
    keeps its own plans per program and each sweep's sets per head, and
    both tables must hand out what the per-body plans say."""

    def test_programs_sharing_a_body_get_the_identical_plan(self):
        engine = Machine(GOLD_6226).engine
        short, long = LoopProgram(BODIES[5], 3), LoopProgram(BODIES[5], 2_001)
        for thread, smt_active in ((0, False), (1, False), (0, True), (1, True)):
            plan = engine._plan(short, thread, smt_active)
            assert engine._plan(long, thread, smt_active) is plan
            assert engine._plan(short.with_iterations(40), thread, smt_active) is plan
        assert engine._plan(short, 0, False) is not engine._plan(short, 0, True)
        assert engine._plan(short, 0, True) is not engine._plan(short, 1, True)

    @pytest.mark.parametrize("thread, smt_active", [(0, False), (1, False), (1, True)])
    def test_sweep_sets_are_the_union_of_plan_sets(self, thread, smt_active):
        machine = Machine(GOLD_6226)
        engine = machine.engine
        programs = tuple(LoopProgram(body, 3) for body in BODIES)
        for _ in range(2):
            machine.run_loops(programs, thread, smt_active)
        union = {i for p in programs for i in engine._plan(p, thread, smt_active).sets}
        assert engine._sweep_sets == {(programs, thread, smt_active): tuple(sorted(union))}

    def test_tables_are_per_engine(self):
        """The per-program and per-sweep tables are each engine's own;
        the plans in them are shared by engines with equal params."""
        first, second = Machine(GOLD_6226), Machine(GOLD_6226)
        programs = (LoopProgram(BODIES[0], 3), LoopProgram(BODIES[1], 3))
        first.run_loops(programs)
        ours, theirs = first.engine, second.engine
        assert ours._program_plans and ours._sweep_sets
        assert not theirs._program_plans and not theirs._sweep_sets
        # Built anew by the second machine: equal programs, new objects.
        again = tuple(LoopProgram(p.body, p.iterations) for p in programs)
        second.run_loops(again)
        assert theirs._sweep_sets == ours._sweep_sets
        assert theirs._plan(again[0], 0, False) is ours._plan(programs[0], 0, False)
        isolated = Machine(GOLD_6226, params=FrontendParams(smt_isolation=True)).engine
        assert isolated._plan(programs[0], 0, False) is not ours._plan(programs[0], 0, False)
