"""The engine's whole-run memo replays exactly what interpretation does.

:meth:`FrontendEngine.memo_run` keys a loop run on its arguments plus
the frontend state it reads, and on a repeat re-applies the recorded
effect instead of interpreting.  The checks here drive two identical
machines through the same sequence of runs and state changes; one of
them forgets every recorded run before each step, so it always
interprets.  After every step the reports and every piece of modelled
state must be identical, bit for bit.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.frontend.engine as engine_module
from repro.frontend.params import FrontendParams
from repro.isa.blocks import MixBlock, filler_block, lcp_block, standard_mix_block
from repro.isa.instructions import jmp_rel8, nop
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.obs import MetricsRegistry, use_registry

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

#: 2_001 leaves a one-iteration single-thread drain in SMT runs against
#: 8 or 40 secondary iterations.
ITERATIONS = (1, 3, 8, 40, 2_001)


def _loop(body, iterations=3, thread=0, smt_active=False, exact=False) -> tuple:
    return ("run_loop", LoopProgram(body, iterations), thread, smt_active, exact)


def _smt(primary, secondary, exact=False) -> tuple:
    return ("run_smt", primary, secondary, exact)


def _variant(call: tuple, field: int, programs: list[LoopProgram]) -> tuple:
    """``call`` with one argument changed: the memo must tell them apart."""
    values = list(call)
    current = values[field]
    if isinstance(current, LoopProgram):
        others = [p for p in programs if p != current] or [current]
        values[field] = others[0]
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
            st.lists(st.sampled_from(ITERATIONS), min_size=1, max_size=2, unique=True)
        )
    ]
    program = st.sampled_from(programs)
    run_loop = st.tuples(
        st.just("run_loop"), program, st.integers(0, 1), st.booleans(), st.booleans()
    )
    run_smt = st.tuples(st.just("run_smt"), program, program, st.booleans())
    calls = []
    for base in draw(st.lists(st.one_of(run_loop, run_smt), min_size=1, max_size=2)):
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
    _, primary, secondary, exact = call
    exact = exact and max(primary.iterations, secondary.iterations) <= 40
    result = machine.run_smt(primary, secondary, exact=exact)
    return (result.primary, result.secondary)


def _change(machine: Machine, calls: list[tuple], op: tuple) -> None:
    """Apply one op that is not a whole run."""
    kind = op[0]
    engine = machine.core.engine
    if kind == "iterate":
        # One bare iteration, as the trace recorder drives the engine:
        # it can leave an LSD mid-stream, a delivery path set or a
        # penalty pending for the next run to start from.
        call = calls[op[1]]
        if call[0] == "run_loop":
            engine.run_iteration(call[1], call[2], call[3])
        else:
            engine.run_iteration(call[2], 1, True)
    elif kind == "invalidate":
        engine.dsb.invalidate(op[1], op[2])
    elif kind == "flush_thread":
        engine.dsb.flush_thread(op[1])
    elif kind == "set_lsd_enabled":
        machine.core.set_lsd_enabled(op[1])
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
    engine = machine.core.engine
    dsb = engine.dsb
    l1i = machine.core.l1i
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
        dict(engine._mite_streak),
        tuple(l1i.lru_stack(i) for i in range(l1i.sets)),
        dataclasses.astuple(l1i.stats),
    )


def _check(calls: list[tuple], ops: list[tuple], params=FrontendParams()) -> None:
    memo = Machine(GOLD_6226, params=params)
    interp = Machine(GOLD_6226, params=params)
    for op in ops:
        if op[0] != "run":
            _change(memo, calls, op)
            _change(interp, calls, op)
            assert _state(memo) == _state(interp), op
            continue
        call = calls[op[1]]
        for _ in range(op[2]):
            interp.core.engine._runs.clear()
            got = _run(memo, call)
            want = _run(interp, call)
            assert _reports(got) == _reports(want), call
            assert _state(memo) == _state(interp), call


class TestReplayEqualsInterpretation:
    @pytest.mark.parametrize("replacement", ["lru", "hashed"])
    @given(scenario=_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_random_sequences(self, replacement, scenario):
        _check(*scenario, FrontendParams(dsb_replacement=replacement))

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

    def test_sibling_mite_streak(self):
        """A run leaves the sibling thread's MITE streak as it found it."""
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

    def test_memo_is_bounded_per_engine(self, monkeypatch):
        monkeypatch.setattr(engine_module, "RUN_MEMO_LIMIT", 3)
        machine = Machine(GOLD_6226)
        for iterations in (1, 2, 3, 4, 5, 6):
            machine.run_loop(LoopProgram(BODIES[0], iterations))
            assert len(machine.core.engine._runs) <= 3
        assert not Machine(GOLD_6226).core.engine._runs
