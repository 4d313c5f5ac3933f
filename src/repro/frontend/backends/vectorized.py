"""Vectorized backend: per-program trace tables + analytic phase replay.

The reference interpreter walks every window of every iteration.  For
the workloads that dominate sweeps — a loop body whose windows become
DSB-resident after one cold pass and then repeat bit-identically — that
per-window walk recomputes the same per-iteration cost dozens of times.
This backend precomputes a **trace table** per program body (numpy
arrays of window addresses, uop counts, decode costs, LCP structure,
DSB geometry) and evaluates each distinct *phase* — the cold first
iteration, the warm all-hit iteration, the LSD-captured iteration, the
streaming iteration — exactly once with array operations.  The run is
then replayed as a cheap walk over those memoized phase costs, using
the same steady-state driver (warmup, period-1/2 detection,
:func:`~repro.frontend.engine.extrapolate_tail` semantics) as the
reference backend, followed by a bulk application of the
microarchitectural state the skipped interpretation would have produced
(DSB residency/LRU/stats, L1I fetches, LSD captures/flushes/streamed
counts).  The replay touches no live state, so its outcome is memoized
per table on (cold residency, iteration count, LSD qualification); the
state application and its divergence checks run on every call.

Bit-identity is non-negotiable (backend choice is excluded from sweep
cache identity), so every float is accumulated in the reference's
evaluation order: ``np.cumsum`` is a sequential left fold over float64
exactly like the interpreter's ``+=`` chains (``np.sum`` is pairwise
and therefore never used on floats here), and the scalar cycle/energy
formulas are transcribed literally from
:meth:`FrontendEngine.run_iteration`.  The driver mirror accumulates
report fields with the same per-iteration ``+=`` sequence the reference
driver's ``merge`` calls produce, and the extrapolated tail expands to
the same ``scaled``/``merge`` arithmetic.

Fallback conditions (the run delegates to the reference backend):

* ``exact=True`` runs and SMT-active runs (cross-thread interference);
* pending LSD flush penalties or a non-idle LSD (history matters);
* a non-``None`` last delivery path (switch accounting spans runs);
* duplicate or uncacheable windows, over-capacity DSB sets (eviction
  listeners would fire), or cold MITE streaks beyond the fill gate.

The fallback is exercised deliberately by the eviction/misalignment
attack channels, which live on exactly those stateful corner cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionError
from repro.frontend.engine import (
    _REPORT_FIELDS,
    FrontendEngine,
    LoopReport,
    _IterationCost,
)
from repro.frontend.backends.reference import ReferenceBackend
from repro.frontend.paths import DeliveryPath
from repro.isa.program import LoopProgram

__all__ = ["VectorizedBackend"]

#: Residency pattern of one iteration: True per access that hits the DSB.
_HitsKey = tuple[bool, ...]


@dataclass(frozen=True)
class _PhaseCost:
    """One distinct iteration shape, fully evaluated."""

    cost: _IterationCost
    #: ``cost.key()``, precomputed for the steady-state history.
    key: tuple
    #: The same iteration when it additionally captures the LSD.
    captured: _IterationCost
    captured_key: tuple
    #: Delivery path after the iteration's last window.
    end_path: DeliveryPath
    #: MITE fill streak after the iteration's last plain window.
    end_streak: int
    #: True when every plain-window miss was allowed to fill the DSB.
    gate_ok: bool
    #: Access indices whose windows this iteration inserts into the DSB.
    inserts: tuple[int, ...]


@dataclass(frozen=True)
class _Run:
    """The pure outcome of one fast-path run (see :meth:`_TraceTable.run`)."""

    #: ``LoopReport`` field values, in declaration order (a fresh report
    #: is built per call: callers merge into reports in place).
    report: tuple
    #: Warm (all-hit) interpreted iterations after the cold one.
    n_warm: int
    #: Iterations streamed from the LSD, extrapolated tail included.
    streamed: int
    #: True when the run ends streaming (the terminal flush ends it).
    streaming: bool
    #: True when the run captured the LSD.
    captured: bool
    #: MITE fill streak after the last interpreted iteration.
    end_streak: int


#: Marks a run memo entry that was never computed (``None`` is a result).
_UNSET = object()


class _TraceTable:
    """Static per-program arrays the phase evaluation runs over."""

    def __init__(self, engine: FrontendEngine, program: LoopProgram) -> None:
        accesses = engine.window_accesses(program)
        self.accesses = accesses
        self.n = len(accesses)
        self.addr = np.array([a.window_addr for a in accesses], dtype=np.int64)
        self.uops = np.array([a.uops for a in accesses], dtype=np.int64)
        self.plain_uops = np.array([a.plain_uops for a in accesses], dtype=np.int64)
        self.lcp_uops = np.array([a.lcp_uops for a in accesses], dtype=np.int64)
        self.lcp_count = np.array([a.lcp_count for a in accesses], dtype=np.int64)
        self.lcp_runs = np.array([a.lcp_runs for a in accesses], dtype=np.int64)
        self.decode = np.array([a.decode_cycles for a in accesses], dtype=np.float64)
        self.plain_decode = np.array(
            [a.plain_decode_cycles for a in accesses], dtype=np.float64
        )
        self.misaligned = np.array(
            [a.spans_from_misaligned for a in accesses], dtype=bool
        )
        self.is_plain = np.array([a.lcp_count == 0 for a in accesses], dtype=bool)
        self.is_pure = np.array([a.pure_lcp for a in accesses], dtype=bool)
        self.is_mixed = ~(self.is_plain | self.is_pure)
        #: Windows that can live in the DSB (at least their plain part).
        self.cacheable = self.is_plain | self.is_mixed
        self.insert_uops = np.where(
            self.is_plain, self.uops, np.where(self.is_mixed, self.plain_uops, 0)
        )
        self.ways = np.array(
            [
                engine.dsb.ways_for_uops(int(u)) if u > 0 else 0
                for u in self.insert_uops
            ],
            dtype=np.int64,
        )
        wb = engine.params.window_bytes
        self.set_index = (self.addr // wb) % engine.params.dsb_sets
        #: Static fast-path viability: at least one window, no aliased
        #: window addresses (intra-iteration residency changes), and no
        #: uncacheable-but-cacheable-destined windows (those re-miss and
        #: bump ``uncacheable_lookups`` every iteration).
        self.static_ok = (
            self.n > 0
            and len({int(a) for a in self.addr}) == self.n
            and bool(np.all(self.ways[self.cacheable] >= 1))
        )
        self.cacheable_list = [bool(c) for c in self.cacheable]
        self.addr_list = [int(a) for a in self.addr]
        self.set_list = [int(s) for s in self.set_index]
        self.insert_list = [int(u) for u in self.insert_uops]
        #: Per hardware thread, one (DSB line key, set dict) probe per
        #: access; the set is ``None`` for an uncacheable window.  In
        #: single-thread mode ``effective_index`` reduces to addr//wb mod
        #: sets, and the set dicts live as long as the engine does.
        sets = engine.dsb._sets
        self.probes = tuple(
            tuple(
                ((thread, addr), sets[s] if c else None)
                for addr, s, c in zip(
                    self.addr_list, self.set_list, self.cacheable_list
                )
            )
            for thread in range(engine.n_threads)
        )
        #: Per hardware thread, the probes of the cacheable accesses.
        self.warm_probes = tuple(
            tuple(probe for probe in probes if probe[1] is not None)
            for probes in self.probes
        )
        self.ways_list = [int(w) for w in self.ways]
        self.pure_addrs = tuple(int(a) for a in self.addr[self.is_pure])
        #: Residency pattern of a fully warmed iteration.
        self.warm_key: _HitsKey = tuple(self.cacheable_list)
        #: Enabled-independent LSD qualification: pure in (program,
        #: params), so safe to cache per program.  The ``enabled`` bit
        #: is re-read per run — microcode patches toggle it on a live
        #: core without invalidating trace tables.
        self.body_qualifies = engine.lsds[0].body_qualifies(program)
        self._phase_memo: dict[tuple, _PhaseCost] = {}
        self._stream: tuple[_IterationCost, tuple] | None = None
        self._runs: dict[tuple, _Run | None] = {}

    # ------------------------------------------------------------------
    # phase evaluation
    # ------------------------------------------------------------------
    def phase(
        self,
        engine: FrontendEngine,
        hits_key: _HitsKey,
        entering: DeliveryPath | None,
    ) -> _PhaseCost:
        """Cost of one full-interpretation iteration with ``hits_key`` residency.

        Memoized on (residency pattern, entering path); the arithmetic
        transcribes :meth:`FrontendEngine.run_iteration` with the same
        float accumulation order.
        """
        memo = self._phase_memo.get((hits_key, entering))
        if memo is not None:
            return memo
        params = engine.params
        energy = engine.energy
        plain, pure, mixed = self.is_plain, self.is_pure, self.is_mixed
        hits = np.array(hits_key, dtype=bool)
        hit = hits & self.cacheable
        miss = self.cacheable & ~hit

        # Integer counters: exact under any summation order.
        uops_dsb = int(self.uops[plain & hit].sum()) + int(
            self.plain_uops[mixed & hit].sum()
        )
        uops_mite = (
            int(self.uops[plain & miss].sum())
            + int(self.uops[pure].sum())
            + int(self.plain_uops[mixed & miss].sum())
            + int(self.lcp_uops[mixed].sum())
        )
        windows_dsb = int(np.count_nonzero(hit))
        windows_mite = int(np.count_nonzero(miss)) + int(np.count_nonzero(pure))
        lcp_stalls = int(self.lcp_count[pure | mixed].sum())

        # MITE decode cycles accumulate in access order, with mixed
        # windows contributing their plain-decode term before their
        # sequential LCP term — a two-column layout raveled row-major
        # reproduces the interpreter's += sequence, and cumsum is a
        # sequential left fold so the float bits match.
        cols = np.zeros((self.n, 2), dtype=np.float64)
        if params.uniform_delivery:
            cols[:, 0][plain & hit] = self.decode[plain & hit]
        cols[:, 0][plain & miss] = self.decode[plain & miss]
        cols[:, 0][pure] = self.decode[pure]
        cols[:, 0][mixed & miss] = self.plain_decode[mixed & miss]
        cols[:, 1][mixed] = self.lcp_count[mixed] * 1.0
        flat = cols.ravel()
        mite_cycles = float(np.cumsum(flat)[-1]) if flat.size else 0.0
        k_misaligned = int(np.count_nonzero(plain & hit & self.misaligned))
        misalign_cycles = (
            float(
                np.cumsum(
                    np.full(k_misaligned, params.misalign_dsb_penalty, dtype=np.float64)
                )[-1]
            )
            if k_misaligned
            else 0.0
        )

        # Switch accounting: the delivery path after each access is DSB
        # on a hit and MITE otherwise; compare each access against its
        # predecessor (the entering path for the first).
        after_dsb = hit
        prev_dsb_or_lsd = np.empty(self.n, dtype=bool)
        prev_mite = np.empty(self.n, dtype=bool)
        prev_dsb_or_lsd[0] = entering in (DeliveryPath.DSB, DeliveryPath.LSD)
        prev_mite[0] = entering is DeliveryPath.MITE
        prev_dsb_or_lsd[1:] = after_dsb[:-1]
        prev_mite[1:] = ~after_dsb[:-1]
        mixed_hit_runs = int(self.lcp_runs[mixed & hit].sum())
        to_dsb = int(np.count_nonzero(hit & prev_mite)) + mixed_hit_runs
        to_mite = (
            int(np.count_nonzero((miss | pure) & prev_dsb_or_lsd)) + mixed_hit_runs
        )

        # MITE fill streak along the plain windows: hits reset it, every
        # miss must stay within the fill gate for the cold pass to leave
        # all windows resident.
        plain_hit_seq = hit[plain]
        if plain_hit_seq.size:
            seq = np.arange(1, plain_hit_seq.size + 1, dtype=np.int64)
            last_reset = np.maximum.accumulate(np.where(plain_hit_seq, seq, 0))
            streaks = seq - last_reset
            miss_streaks = streaks[~plain_hit_seq]
            gate_ok = (
                bool(np.all(miss_streaks <= params.mite_fill_streak_limit))
                if miss_streaks.size
                else True
            )
            end_streak = int(streaks[-1])
        else:
            gate_ok = True
            end_streak = 0

        base = (uops_dsb + uops_mite) / params.issue_width
        frontend = (
            windows_dsb * params.dsb_window_overhead
            + misalign_cycles
            + mite_cycles
            + to_mite * params.dsb_to_mite_penalty
            + to_dsb * params.mite_to_dsb_penalty
            + lcp_stalls * params.lcp_stall
        )
        cycles = base + frontend + params.loop_iteration_overhead + 0.0
        energy_nj = (
            uops_dsb * energy.dsb_uop_energy
            + uops_mite * energy.mite_uop_energy
            + cycles * energy.cycle_energy
            + lcp_stalls * energy.lcp_stall_energy
            + (to_mite + to_dsb) * energy.switch_energy
        )
        cost = _IterationCost(
            cycles=cycles,
            uops_lsd=0,
            uops_dsb=uops_dsb,
            uops_mite=uops_mite,
            windows_lsd=0,
            windows_dsb=windows_dsb,
            windows_mite=windows_mite,
            switches_to_mite=to_mite,
            switches_to_dsb=to_dsb,
            lcp_stalls=lcp_stalls,
            lsd_flushes=0,
            lsd_captures=0,
            dsb_evictions=0,
            energy_nj=energy_nj,
        )
        # The capturing variant pays lsd_capture_cost *before* energy is
        # computed, so its energy derives from the larger cycle count.
        cap_cycles = cycles + params.lsd_capture_cost
        cap_energy = (
            uops_dsb * energy.dsb_uop_energy
            + uops_mite * energy.mite_uop_energy
            + cap_cycles * energy.cycle_energy
            + lcp_stalls * energy.lcp_stall_energy
            + (to_mite + to_dsb) * energy.switch_energy
        )
        captured = _IterationCost(
            cycles=cap_cycles,
            uops_lsd=0,
            uops_dsb=uops_dsb,
            uops_mite=uops_mite,
            windows_lsd=0,
            windows_dsb=windows_dsb,
            windows_mite=windows_mite,
            switches_to_mite=to_mite,
            switches_to_dsb=to_dsb,
            lcp_stalls=lcp_stalls,
            lsd_flushes=0,
            lsd_captures=1,
            dsb_evictions=0,
            energy_nj=cap_energy,
        )
        phase = _PhaseCost(
            cost=cost,
            key=cost.key(),
            captured=captured,
            captured_key=captured.key(),
            end_path=DeliveryPath.DSB if bool(after_dsb[-1]) else DeliveryPath.MITE,
            end_streak=end_streak,
            gate_ok=gate_ok,
            inserts=tuple(int(i) for i in np.flatnonzero(miss)),
        )
        self._phase_memo[(hits_key, entering)] = phase
        return phase

    def stream(
        self, engine: FrontendEngine, program: LoopProgram
    ) -> tuple[_IterationCost, tuple]:
        """Cost of an LSD-streamed iteration (mirrors ``_lsd_iteration``)."""
        if self._stream is None:
            params = engine.params
            uops = program.uops_per_iteration
            windows = program.window_events_per_iteration
            base = uops / params.issue_width
            frontend = windows * params.lsd_window_overhead
            if params.uniform_delivery:
                frontend += sum(a.decode_cycles for a in self.accesses)
            cycles = base + frontend + params.loop_iteration_overhead + 0.0
            energy_nj = (
                uops * engine.energy.lsd_uop_energy
                + cycles * engine.energy.cycle_energy
            )
            cost = _IterationCost(
                cycles=cycles,
                uops_lsd=uops,
                uops_dsb=0,
                uops_mite=0,
                windows_lsd=windows,
                windows_dsb=0,
                windows_mite=0,
                switches_to_mite=0,
                switches_to_dsb=0,
                lcp_stalls=0,
                lsd_flushes=0,
                lsd_captures=0,
                dsb_evictions=0,
                energy_nj=energy_nj,
            )
            self._stream = (cost, cost.key())
        return self._stream

    def run(
        self,
        engine: FrontendEngine,
        program: LoopProgram,
        h0_key: _HitsKey,
        qualifies: bool,
    ) -> "_Run | None":
        """The driver mirror's outcome for one fast-path run, or ``None``.

        Pure in (table, entry residency ``h0_key``, iteration count, LSD
        qualification): nothing here reads or writes live state, so the
        result is memoized on that triple.  ``None`` means the run never
        reached a steady state and must take the reference path.
        """
        memo_key = (h0_key, program.iterations, qualifies)
        memo = self._runs.get(memo_key, _UNSET)
        if memo is not _UNSET:
            return memo
        params = engine.params
        detect = params.lsd_detect_iterations

        # --- driver mirror: same warmup / steady / extrapolation logic
        # as the reference backend, walking memoized phase costs.  The
        # report fields accumulate with the reference's merge sequence
        # (per-iteration += in order, then the scaled tail once).
        history: list[tuple] = []
        iteration = 0
        limit = min(program.iterations, engine.MAX_SIMULATED)
        steady = False
        prev_cost: _IterationCost | None = None
        cost: _IterationCost | None = None
        min_warmup = engine.MIN_WARMUP
        if qualifies:
            min_warmup = max(min_warmup, detect + 2)
        streaming = False
        captured = False
        streak = 0
        n_warm = 0
        n_stream = 0
        entering: DeliveryPath | None = None
        last_end_streak = 0
        cycles = 0.0
        energy_nj = 0.0
        uops_lsd = uops_dsb = uops_mite = 0
        windows_lsd = windows_dsb = windows_mite = 0
        to_mite = to_dsb = lcp_stalls = captures = 0
        is_steady = FrontendEngine._is_steady
        while iteration < limit:
            if streaming:
                current, key = self.stream(engine, program)
                n_stream += 1
            else:
                phase = self.phase(
                    engine, h0_key if iteration == 0 else self.warm_key, entering
                )
                if iteration > 0:
                    n_warm += 1
                current, key = phase.cost, phase.key
                if qualifies and phase.cost.windows_mite == 0:
                    streak += 1
                    if streak >= detect:
                        streaming = True
                        captured = True
                        current, key = phase.captured, phase.captured_key
                elif qualifies:
                    streak = 0
                entering = phase.end_path
                last_end_streak = phase.end_streak
            prev_cost, cost = cost, current
            cycles += current.cycles
            energy_nj += current.energy_nj
            uops_lsd += current.uops_lsd
            uops_dsb += current.uops_dsb
            uops_mite += current.uops_mite
            windows_lsd += current.windows_lsd
            windows_dsb += current.windows_dsb
            windows_mite += current.windows_mite
            to_mite += current.switches_to_mite
            to_dsb += current.switches_to_dsb
            lcp_stalls += current.lcp_stalls
            captures += current.lsd_captures
            history.append(key)
            iteration += 1
            if iteration >= min_warmup and is_steady(history):
                steady = True
                break
        simulated = iteration
        remaining = program.iterations - iteration
        if remaining > 0:
            if not steady:
                # Phase costs are constant after warmup, so this cannot
                # happen; if the model ever grows a longer transient,
                # the reference driver stays authoritative.
                self._runs[memo_key] = None
                return None
            # Expanded extrapolate_tail: period-1 repeats the last cost;
            # period-2 continues prev, last, prev, ... after the last
            # simulated iteration.  Factors are exact integers, and each
            # field receives one += of the combined tail, matching the
            # reference's single merge of the scaled report.
            if history[-1] != history[-2] and prev_cost is not None:
                h, f = (remaining + 1) // 2, remaining // 2
                cycles += prev_cost.cycles * h + cost.cycles * f
                energy_nj += prev_cost.energy_nj * h + cost.energy_nj * f
                uops_lsd += prev_cost.uops_lsd * h + cost.uops_lsd * f
                uops_dsb += prev_cost.uops_dsb * h + cost.uops_dsb * f
                uops_mite += prev_cost.uops_mite * h + cost.uops_mite * f
                windows_lsd += prev_cost.windows_lsd * h + cost.windows_lsd * f
                windows_dsb += prev_cost.windows_dsb * h + cost.windows_dsb * f
                windows_mite += prev_cost.windows_mite * h + cost.windows_mite * f
                to_mite += prev_cost.switches_to_mite * h + cost.switches_to_mite * f
                to_dsb += prev_cost.switches_to_dsb * h + cost.switches_to_dsb * f
                lcp_stalls += prev_cost.lcp_stalls * h + cost.lcp_stalls * f
                captures += prev_cost.lsd_captures * h + cost.lsd_captures * f
            else:
                cycles += cost.cycles * remaining
                energy_nj += cost.energy_nj * remaining
                uops_lsd += cost.uops_lsd * remaining
                uops_dsb += cost.uops_dsb * remaining
                uops_mite += cost.uops_mite * remaining
                windows_lsd += cost.windows_lsd * remaining
                windows_dsb += cost.windows_dsb * remaining
                windows_mite += cost.windows_mite * remaining
                to_mite += cost.switches_to_mite * remaining
                to_dsb += cost.switches_to_dsb * remaining
                lcp_stalls += cost.lcp_stalls * remaining
                captures += cost.lsd_captures * remaining
        cycles += params.loop_exit_mispredict
        energy_nj += params.loop_exit_mispredict * engine.energy.cycle_energy
        report = LoopReport(
            cycles=cycles,
            iterations=simulated + max(remaining, 0),
            uops_lsd=uops_lsd,
            uops_dsb=uops_dsb,
            uops_mite=uops_mite,
            windows_lsd=windows_lsd,
            windows_dsb=windows_dsb,
            windows_mite=windows_mite,
            switches_to_mite=to_mite,
            switches_to_dsb=to_dsb,
            lcp_stalls=lcp_stalls,
            lsd_flushes=0,
            lsd_captures=captures,
            dsb_evictions=0,
            energy_nj=energy_nj,
            simulated_iterations=simulated,
        )
        run = _Run(
            report=tuple(getattr(report, name) for name in _REPORT_FIELDS),
            n_warm=n_warm,
            streamed=n_stream + (remaining if streaming and remaining > 0 else 0),
            streaming=streaming,
            captured=captured,
            end_streak=last_end_streak,
        )
        self._runs[memo_key] = run
        return run


class VectorizedBackend:
    """Trace-table fast path with reference fallback."""

    name = "vectorized"

    def __init__(self) -> None:
        self._reference = ReferenceBackend()
        self._tables: dict[tuple, _TraceTable] = {}
        self._engine: FrontendEngine | None = None

    def run_loop(
        self,
        engine: FrontendEngine,
        program: LoopProgram,
        thread: int,
        smt_active: bool,
        exact: bool,
    ) -> LoopReport:
        report = self._try_fast(engine, program, thread, smt_active, exact)
        if report is None:
            return self._reference.run_loop(engine, program, thread, smt_active, exact)
        return report

    # ------------------------------------------------------------------
    # fast path
    # ------------------------------------------------------------------
    def _table(self, engine: FrontendEngine, program: LoopProgram) -> _TraceTable:
        # Tables derive from one engine's params; a backend normally
        # serves exactly one engine, but guard against sharing.
        if self._engine is not engine:
            self._tables.clear()
            self._engine = engine
        table = self._tables.get(program.body)
        if table is None:
            table = _TraceTable(engine, program)
            self._tables[program.body] = table
        return table

    def _try_fast(
        self,
        engine: FrontendEngine,
        program: LoopProgram,
        thread: int,
        smt_active: bool,
        exact: bool,
    ) -> LoopReport | None:
        if exact or smt_active or program.iterations <= 0:
            return None
        if engine._pending_penalty[thread] or engine._pending_flushes[thread]:
            return None
        if engine._last_path[thread] is not None:
            return None
        lsd = engine.lsds[thread]
        if not lsd.idle:
            return None
        table = self._table(engine, program)
        if not table.static_ok:
            return None
        dsb = engine.dsb
        params = engine.params

        probes = table.probes[thread]
        h0_key: _HitsKey = tuple(
            [entry_set is not None and key in entry_set for key, entry_set in probes]
        )
        cold = table.phase(engine, h0_key, None)
        if not cold.gate_ok:
            return None
        if cold.inserts:
            # Every cold insert must fit without evicting (evictions
            # would fire the LSD inclusivity listeners mid-run).
            need: dict[int, int] = {}
            for i in cold.inserts:
                set_i = table.set_list[i]
                need[set_i] = need.get(set_i, 0) + table.ways_list[i]
            for set_i, extra in need.items():
                if dsb._ways[set_i] + extra > params.dsb_ways:
                    return None

        qualifies = table.body_qualifies and lsd.enabled
        run = table.run(engine, program, h0_key, qualifies)
        if run is None:
            return None

        # --- apply the microarchitectural state the skipped
        # interpretation would have produced.  Probes go straight to the
        # set dicts (the ones ``dsb.lookup`` would pick), and the
        # hit/miss statistics are added once.
        l1i = engine.l1i
        hits = misses = 0
        for (key, entry_set), expect, uops in zip(probes, h0_key, table.insert_list):
            if entry_set is None:
                if l1i is not None:
                    l1i.access(key[1])
                continue
            got = key in entry_set
            if got != expect:
                raise ExecutionError(
                    "vectorized fast path: DSB residency prediction diverged"
                )
            if got:
                entry_set.move_to_end(key)
                hits += 1
            else:
                misses += 1
                if l1i is not None:
                    l1i.access(key[1])
                dsb.insert(thread, key[1], uops, False)
        n_warm = run.n_warm
        if n_warm:
            warm_probes = table.warm_probes[thread]
            for key, entry_set in warm_probes:
                if key not in entry_set:
                    raise ExecutionError(
                        "vectorized fast path: warm lookup unexpectedly missed"
                    )
                entry_set.move_to_end(key)
            # Warm passes beyond the first are LRU-idempotent (the same
            # keys move to the end in the same order), so only the
            # statistics need the repetition.
            hits += n_warm * len(warm_probes)
            if l1i is not None:
                for _ in range(n_warm):
                    for addr in table.pure_addrs:
                        l1i.access(addr)
        dsb.stats.hits += hits
        dsb.stats.misses += misses
        if run.captured:
            lsd.stats.captures += 1
        if run.streamed:
            lsd.stats.streamed_iterations += run.streamed
        if run.streaming:
            # The reference driver's terminal flush() ends the stream.
            lsd.stats.flushes += 1
        engine._mite_streak[thread] = run.end_streak
        engine._last_path[thread] = None
        return LoopReport(*run.report)
