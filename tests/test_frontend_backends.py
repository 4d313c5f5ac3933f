"""Contract tests for the pluggable frontend simulation backends.

The backend abstraction only earns its keep if it is *invisible*: every
registered backend must produce byte-identical :class:`LoopReport`\\ s and
microarchitectural state for every program, and the backend choice must
never leak into sweep point identity (cache keys).  These tests pin that
contract, the registry precedence rules, the steady-state extrapolation
bugfixes that motivated the refactor, and the per-backend observability
instruments.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.exec import SerialExecutor
from repro.exec.canonical import callable_fingerprint, point_key
from repro.frontend.backends import (
    ENV_VAR,
    available_backends,
    create_backend,
    default_backend_name,
    resolve_backend_name,
    set_default_backend,
)
from repro.frontend.backends.reference import ReferenceBackend
from repro.frontend.backends.vectorized import VectorizedBackend
from repro.frontend.engine import (
    SIM_LATENCY_EDGES,
    FrontendEngine,
    _IterationCost,
    extrapolate_tail,
)
from repro.isa.blocks import lcp_block, standard_mix_block
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.obs import MetricsRegistry, use_registry
from repro.service.spec import sweep_point_metrics
from repro.sweep import ParameterSweep
from tests._replay import assert_replay

LAYOUT = BlockChainLayout()

BACKENDS = ("reference", "vectorized")

#: Steady-state loops at an iteration count high enough that every run
#: extrapolates: eight and four aligned blocks, which stream from the
#: LSD when it is enabled and from the DSB when it is not, and four
#: aligned blocks plus two LCP windows, which pay decode stalls and
#: DSB/MITE path switches every iteration.
DSB_RESIDENT_8 = LoopProgram(
    [standard_mix_block(LAYOUT.block_address(s, 40)) for s in range(8)],
    20_000_000,
)
LSD_CAPTURE_4 = LoopProgram(
    [standard_mix_block(LAYOUT.block_address(s, 41)) for s in range(4)],
    20_000_000,
)
LCP_MIXED_6 = LoopProgram(
    [standard_mix_block(LAYOUT.block_address(s, 42)) for s in range(4)]
    + [
        lcp_block(LAYOUT.block_address(10 + s, 42), lcp_sets=4, mixed=True)
        for s in range(2)
    ],
    20_000_000,
)


@pytest.fixture(autouse=True)
def _pristine_backend_selection(monkeypatch):
    """No test leaks a process default or env override to the next."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    previous = set_default_backend(None)
    yield
    set_default_backend(previous)


@st.composite
def arbitrary_programs(draw) -> LoopProgram:
    """Random aligned/misaligned/LCP block mixtures (fuzz-test idiom)."""
    n_blocks = draw(st.integers(min_value=1, max_value=12))
    blocks = []
    for _ in range(n_blocks):
        kind = draw(st.sampled_from(["aligned", "misaligned", "lcp"]))
        dsb_set = draw(st.integers(min_value=0, max_value=31))
        slot = draw(st.integers(min_value=0, max_value=20))
        if kind == "aligned":
            blocks.append(standard_mix_block(LAYOUT.block_address(dsb_set, slot)))
        elif kind == "misaligned":
            blocks.append(
                standard_mix_block(
                    LAYOUT.block_address(dsb_set, slot, misaligned=True)
                )
            )
        else:
            blocks.append(
                lcp_block(
                    LAYOUT.block_address(dsb_set, slot),
                    lcp_sets=4,
                    mixed=draw(st.booleans()),
                )
            )
    iterations = draw(
        st.one_of(
            st.integers(min_value=1, max_value=30),
            st.sampled_from([500, 5_000, 2_000_000]),  # extrapolation regime
        )
    )
    return LoopProgram(blocks, iterations)


def _engine_state(engine: FrontendEngine) -> tuple:
    """Everything observable about an engine's microarchitectural state."""
    return (
        dataclasses.astuple(engine.dsb.stats),
        tuple(
            tuple((key, line.uops, line.ways) for key, line in s.items())
            for s in engine.dsb._sets
        ),
        tuple(
            (
                t,
                lsd.state,
                dataclasses.astuple(lsd.stats),
                lsd._candidate,
                lsd._qualify_streak,
                tuple(sorted(lsd._loop_windows)),
            )
            for t, lsd in sorted(engine.lsds.items())
        ),
        dict(engine._last_path),
        dict(engine._mite_streak),
    )


# ----------------------------------------------------------------------
# registry and selection precedence
# ----------------------------------------------------------------------
class TestRegistry:
    def test_both_backends_registered(self):
        names = available_backends()
        assert "reference" in names and "vectorized" in names
        assert names == tuple(sorted(names))

    def test_create_returns_fresh_instances(self):
        a = create_backend("vectorized")
        b = create_backend("vectorized")
        assert isinstance(a, VectorizedBackend) and a is not b
        assert isinstance(create_backend("reference"), ReferenceBackend)

    def test_unknown_backend_rejected_with_catalogue(self):
        with pytest.raises(ConfigurationError) as err:
            create_backend("turbo")
        assert "reference" in str(err.value)

    def test_precedence_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "vectorized")
        set_default_backend("vectorized")
        assert resolve_backend_name("reference") == "reference"

    def test_precedence_default_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "vectorized")
        set_default_backend("reference")
        assert resolve_backend_name(None) == "reference"

    def test_precedence_env_beats_builtin(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "vectorized")
        assert resolve_backend_name(None) == "vectorized"

    def test_builtin_default_is_reference(self):
        assert resolve_backend_name(None) == "reference"
        assert default_backend_name() == "reference"

    def test_set_default_validates_and_returns_previous(self):
        assert set_default_backend("vectorized") is None
        assert set_default_backend(None) == "vectorized"
        with pytest.raises(ConfigurationError):
            set_default_backend("turbo")

    def test_engine_owns_one_lazily_created_instance(self):
        engine = FrontendEngine(backend="vectorized")
        assert engine.backend is engine.backend
        other = FrontendEngine(backend="vectorized")
        assert engine.backend is not other.backend
        assert engine.backend.name == "vectorized"


# ----------------------------------------------------------------------
# steady-state detection key (bugfix regression)
# ----------------------------------------------------------------------
class TestIterationCostKey:
    BASE = dict(
        cycles=10.0,
        uops_lsd=0,
        uops_dsb=24,
        uops_mite=8,
        windows_lsd=0,
        windows_dsb=4,
        windows_mite=2,
        switches_to_mite=1,
        switches_to_dsb=1,
        lcp_stalls=2,
        lsd_flushes=0,
        lsd_captures=0,
        dsb_evictions=0,
        energy_nj=5.0,
    )

    def test_every_field_participates(self):
        base = _IterationCost(**self.BASE)
        for field in dataclasses.fields(_IterationCost):
            bumped = dataclasses.replace(
                base, **{field.name: getattr(base, field.name) + 1}
            )
            assert bumped.key() != base.key(), field.name

    def test_switch_count_variation_breaks_equality(self):
        """Regression: the old key was the (cycles, uops_lsd, uops_dsb,
        uops_mite, lcp_stalls) subset, so iterations differing only in
        switch/flush/eviction/energy counters compared equal and
        extrapolation scaled the wrong deltas."""
        a = _IterationCost(**self.BASE)
        b = dataclasses.replace(
            a, switches_to_mite=3, switches_to_dsb=3, energy_nj=9.0
        )
        old_subset = ("cycles", "uops_lsd", "uops_dsb", "uops_mite", "lcp_stalls")
        assert all(getattr(a, f) == getattr(b, f) for f in old_subset)
        assert a.key() != b.key()


# ----------------------------------------------------------------------
# scaled() / extrapolate_tail conservation (bugfix regression)
# ----------------------------------------------------------------------
class TestExtrapolationConservation:
    PREV = _IterationCost(
        cycles=12.5,
        uops_lsd=0,
        uops_dsb=30,
        uops_mite=10,
        windows_lsd=0,
        windows_dsb=5,
        windows_mite=2,
        switches_to_mite=2,
        switches_to_dsb=2,
        lcp_stalls=4,
        lsd_flushes=0,
        lsd_captures=0,
        dsb_evictions=1,
        energy_nj=7.25,
    )
    LAST = _IterationCost(
        cycles=9.75,
        uops_lsd=0,
        uops_dsb=36,
        uops_mite=4,
        windows_lsd=0,
        windows_dsb=6,
        windows_mite=1,
        switches_to_mite=1,
        switches_to_dsb=1,
        lcp_stalls=2,
        lsd_flushes=0,
        lsd_captures=0,
        dsb_evictions=0,
        energy_nj=6.5,
    )

    @given(st.integers(min_value=0, max_value=10**7))
    @settings(max_examples=60, deadline=None)
    def test_scaled_integral_factor_is_exact(self, factor):
        report = self.LAST.to_report()
        scaled = report.scaled(factor)
        assert scaled.uops_dsb == report.uops_dsb * factor
        assert scaled.uops_mite == report.uops_mite * factor
        assert scaled.lcp_stalls == report.lcp_stalls * factor
        assert scaled.switches_to_mite == report.switches_to_mite * factor
        assert scaled.cycles == report.cycles * factor

    def test_period_two_odd_remaining_golden(self):
        """5 remaining after ...prev,last ends => prev,last,prev,last,prev."""
        tail = extrapolate_tail(self.PREV, self.LAST, 5, period_two=True)
        assert tail.iterations == 5
        assert tail.simulated_iterations == 0
        assert tail.uops_dsb == 3 * self.PREV.uops_dsb + 2 * self.LAST.uops_dsb
        assert tail.uops_mite == 3 * self.PREV.uops_mite + 2 * self.LAST.uops_mite
        assert tail.lcp_stalls == 3 * self.PREV.lcp_stalls + 2 * self.LAST.lcp_stalls
        assert (
            tail.switches_to_mite
            == 3 * self.PREV.switches_to_mite + 2 * self.LAST.switches_to_mite
        )
        assert tail.dsb_evictions == 3 * self.PREV.dsb_evictions
        assert tail.cycles == 3 * self.PREV.cycles + 2 * self.LAST.cycles

    def test_period_two_even_remaining_golden(self):
        tail = extrapolate_tail(self.PREV, self.LAST, 6, period_two=True)
        assert tail.uops_dsb == 3 * (self.PREV.uops_dsb + self.LAST.uops_dsb)
        assert tail.total_uops == 3 * (
            self.PREV.uops_dsb
            + self.PREV.uops_mite
            + self.LAST.uops_dsb
            + self.LAST.uops_mite
        )

    def test_period_one_matches_repeated_merge(self):
        tail = extrapolate_tail(None, self.LAST, 7, period_two=False)
        manual = self.LAST.to_report()
        for _ in range(6):
            manual.merge(self.LAST.to_report())
        assert tail.uops_dsb == manual.uops_dsb
        assert tail.cycles == pytest.approx(manual.cycles, rel=0, abs=1e-9)

    @given(st.integers(min_value=1, max_value=1_000_001))
    @settings(max_examples=60, deadline=None)
    def test_period_two_conserves_uops_for_any_remaining(self, remaining):
        tail = extrapolate_tail(self.PREV, self.LAST, remaining, period_two=True)
        head = (remaining + 1) // 2
        assert tail.total_uops == head * (
            self.PREV.uops_dsb + self.PREV.uops_mite
        ) + (remaining - head) * (self.LAST.uops_dsb + self.LAST.uops_mite)

    def test_extrapolated_run_conserves_uops_end_to_end(self):
        """A DSB/MITE-alternating loop at sweep-scale iteration counts
        must conserve uops exactly — the banker's-rounding scaled() path
        drifted by one window on odd extrapolations."""
        program = LoopProgram(
            [standard_mix_block(LAYOUT.block_address(s, 3)) for s in range(6)],
            1_000_001,
        )
        for backend in BACKENDS:
            report = FrontendEngine(backend=backend).run_loop(program)
            assert report.total_uops == program.total_uops


# ----------------------------------------------------------------------
# cross-backend bit identity
# ----------------------------------------------------------------------
class TestCrossBackendIdentity:
    @given(
        arbitrary_programs(),
        st.booleans(),
        st.integers(min_value=1, max_value=2),
    )
    @example(DSB_RESIDENT_8, True, 2)
    @example(DSB_RESIDENT_8, False, 2)
    @example(LSD_CAPTURE_4, True, 2)
    @example(LCP_MIXED_6, True, 2)
    @settings(max_examples=50, deadline=None)
    def test_reports_and_state_byte_identical(self, program, lsd_enabled, runs):
        ref = FrontendEngine(lsd_enabled=lsd_enabled, backend="reference")
        vec = FrontendEngine(lsd_enabled=lsd_enabled, backend="vectorized")
        for _ in range(runs):
            a = ref.run_loop(program)
            b = vec.run_loop(program)
            assert dataclasses.astuple(a) == dataclasses.astuple(b)
        assert _engine_state(ref) == _engine_state(vec)

    @given(arbitrary_programs(), st.integers(min_value=0, max_value=1))
    @settings(max_examples=25, deadline=None)
    def test_two_thread_engines_agree(self, program, thread):
        ref = FrontendEngine(n_threads=2, backend="reference")
        vec = FrontendEngine(n_threads=2, backend="vectorized")
        a = ref.run_loop(program, thread=thread)
        b = vec.run_loop(program, thread=thread)
        assert dataclasses.astuple(a) == dataclasses.astuple(b)
        assert _engine_state(ref) == _engine_state(vec)

    @given(arbitrary_programs())
    @settings(max_examples=25, deadline=None)
    def test_smt_active_falls_back_identically(self, program):
        ref = FrontendEngine(n_threads=2, backend="reference")
        vec = FrontendEngine(n_threads=2, backend="vectorized")
        a = ref.run_loop(program, smt_active=True)
        b = vec.run_loop(program, smt_active=True)
        assert dataclasses.astuple(a) == dataclasses.astuple(b)

    def test_lsd_toggle_invalidates_cached_qualification(self):
        """Regression: trace tables cached structural LSD qualification
        including the ``enabled`` bit, so a microcode patch flipping the
        LSD on a live core (``Core.set_lsd_enabled``) left the vectorized
        backend streaming a disabled LSD."""
        program = LoopProgram(
            [standard_mix_block(LAYOUT.block_address(s, 7)) for s in range(4)],
            5_000,
        )
        machines = {
            backend: Machine(GOLD_6226, seed=71, backend=backend)
            for backend in BACKENDS
        }
        for enabled, expect_lsd in ((True, True), (False, False), (True, True)):
            reports = {}
            for backend, machine in machines.items():
                machine.core.set_lsd_enabled(enabled)
                reports[backend] = machine.run_loop(program)
                assert (reports[backend].uops_lsd > 0) == expect_lsd, backend
            assert dataclasses.astuple(reports["reference"]) == dataclasses.astuple(
                reports["vectorized"]
            )

    def test_exact_mode_agrees(self):
        program = LoopProgram(
            [standard_mix_block(LAYOUT.block_address(s, 5)) for s in range(4)],
            40,
        )
        a = FrontendEngine(backend="reference").run_loop(program, exact=True)
        b = FrontendEngine(backend="vectorized").run_loop(program, exact=True)
        assert dataclasses.astuple(a) == dataclasses.astuple(b)

    @given(arbitrary_programs(), arbitrary_programs())
    @settings(max_examples=25, deadline=None)
    def test_memoized_runs_still_apply_state(self, first, second):
        """Repeated fast-path runs with the same entry residency reuse the
        table's run memo; the DSB/L1I/LSD write-back must still happen on
        every call, and a caller mutating a returned report must not
        corrupt the next one."""
        ref = FrontendEngine(backend="reference")
        vec = FrontendEngine(backend="vectorized")
        for _ in range(3):
            for program in (first, second, first):
                a = ref.run_loop(program)
                b = vec.run_loop(program)
                assert dataclasses.astuple(a) == dataclasses.astuple(b)
                b.merge(b)  # callers accumulate into reports in place
            assert _engine_state(ref) == _engine_state(vec)
            # Back to a cold DSB: the next pass repeats the memo keys.
            ref.reset_thread(0)
            vec.reset_thread(0)


# ----------------------------------------------------------------------
# deterministic replay + cache identity
# ----------------------------------------------------------------------
class TestSweepDeterminism:
    GRID = {"d": [2, 4], "p": [3]}

    def _table(self):
        factory = functools.partial(
            sweep_point_metrics, "Gold 6226", "eviction", "stealthy", 16
        )
        sweep = ParameterSweep(factory, self.GRID, trials=1, base_seed=11)
        return sweep.run(executor=SerialExecutor())

    def test_replay_fixture_per_backend(self):
        captures = {}
        for backend in BACKENDS:
            set_default_backend(backend)
            table = self._table()
            assert_replay(f"frontend_backend_{backend}", table)
            captures[backend] = table.rows()
        assert captures["reference"] == captures["vectorized"]

    def test_point_key_ignores_backend_selection(self, monkeypatch):
        factory = functools.partial(
            sweep_point_metrics, "Gold 6226", "eviction", "stealthy", 16
        )
        values = {"d": 2, "p": 3}
        baseline = point_key(values, 0, 11, callable_fingerprint(factory))
        set_default_backend("vectorized")
        monkeypatch.setenv(ENV_VAR, "vectorized")
        assert point_key(values, 0, 11, callable_fingerprint(factory)) == baseline


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestBackendInstruments:
    def test_sim_metrics_tagged_per_backend(self):
        program = LoopProgram(
            [standard_mix_block(LAYOUT.block_address(s, 9)) for s in range(3)],
            25,
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            for backend in BACKENDS:
                FrontendEngine(backend=backend).run_loop(program)
        text = json.dumps(registry.snapshot(), sort_keys=True)
        assert "sim.points" in text and "sim.latency" in text
        assert '"reference"' in text and '"vectorized"' in text

    def test_sim_latency_uses_microsecond_edges(self):
        """One simulator call takes tens to hundreds of microseconds, so
        ``sim.latency`` buckets at that scale, not the registry default."""
        program = LoopProgram([standard_mix_block(LAYOUT.block_address(0, 9))], 25)
        registry = MetricsRegistry()
        with use_registry(registry):
            for backend in BACKENDS:
                FrontendEngine(backend=backend).run_loop(program)
        latencies = [
            entry for entry in registry.snapshot()["metrics"]
            if entry["name"] == "sim.latency"
        ]
        assert len(latencies) == len(BACKENDS)
        for entry in latencies:
            assert tuple(entry["edges"]) == SIM_LATENCY_EDGES
            assert entry["count"] == 1
        assert SIM_LATENCY_EDGES[0] < 1e-4 and SIM_LATENCY_EDGES[-1] < 1.0
