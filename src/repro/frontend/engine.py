"""Frontend execution engine.

Drives :class:`~repro.isa.program.LoopProgram` bodies through the modelled
frontend, iteration by iteration, and produces :class:`LoopReport`
delivery summaries (cycles, per-path uops, switches, stalls, energy).

The engine is **deterministic**: all measurement noise is added later by
the measurement layer (:mod:`repro.measure`), so identical programs on
identical state always produce identical reports.

Cost model per iteration (cycles)::

    base      = uops / issue_width                 (rename/retire cap)
    frontend  = dsb_windows * dsb_window_overhead
              + lsd_windows * lsd_window_overhead
              + sum(MITE window decode costs)
              + switches * switch penalties
              + lcp_stalls * lcp_stall
    cycles    = base + frontend * smt_factor + loop_iteration_overhead
              + pending LSD flush/capture penalties

For long loops the engine detects a steady state (per-iteration report
repeating with period 1 or 2 under one key, :func:`_steady_key`) and
extrapolates the remaining iterations analytically, which lets the
20-million-iteration experiments of Section III run in milliseconds
without changing the modelled state machine behaviour.  Two hardware
threads (:meth:`FrontendEngine.run_smt`) interleave in rounds, and the
same key and the same period-1/2 tail serve the rounds.

Loop runs are memoized per engine (:meth:`FrontendEngine._memo_run`): a
run that starts from frontend state already seen with the same
arguments replays its recorded reports and state changes instead of
being interpreted again.  A run that reached a steady state is recorded
by its *simulated prefix* alone, under a head without the trip count,
so the same body at another count replays the prefix and only
extrapolates its own tail.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from operator import attrgetter, ge
from typing import Callable, NamedTuple

from repro.caches.sa_cache import SetAssociativeCache
from repro.errors import ExecutionError
from repro.obs import get_registry
from repro.frontend.dsb import DecodedStreamBuffer, DsbLine, LineKey
from repro.frontend.lsd import LoopStreamDetector
from repro.frontend.mite import MiteDecoder
from repro.frontend.params import EnergyParams, FrontendParams
from repro.frontend.paths import DeliveryPath
from repro.isa.blocks import MixBlock
from repro.isa.instructions import Instruction
from repro.isa.program import LoopProgram

__all__ = ["FrontendEngine", "LoopReport", "SmtRunResult", "WindowAccess"]

#: ``sim.latency`` bucket edges, in seconds.  One ``run_loop`` call takes
#: tens to hundreds of microseconds, so the registry's millisecond-scale
#: default would put almost every observation in its first bucket.
SIM_LATENCY_EDGES: tuple[float, ...] = (
    10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 5e-3, 25e-3,
)

#: Most recorded loop runs one engine keeps; the oldest is dropped first.
RUN_MEMO_LIMIT = 512


@dataclass(frozen=True)
class WindowAccess:
    """Pre-computed static description of one window touch in a loop body.

    LCP-prefixed instructions never issue from the DSB (Section III-D):
    a window containing both plain and LCP instructions delivers its
    plain uops from the DSB (once cached) and its LCP uops from MITE,
    paying a DSB->MITE->DSB switch per maximal LCP run — the mechanism
    the slow-switch channel and Figure 6 exploit.

    Attributes
    ----------
    lcp_runs:
        Number of maximal runs of consecutive LCP instructions.
    spans_from_misaligned:
        True when this window belongs to a block that crosses a window
        boundary; such insertions disturb other threads' LSD streams on
        the same DSB set (Section IV-B).
    """

    window_addr: int
    instructions: tuple[Instruction, ...]
    uops: int
    #: Uops of the window's non-LCP instructions.
    plain_uops: int
    bytes_used: int
    lcp_count: int
    lcp_runs: int = 0
    spans_from_misaligned: bool = False
    #: Precomputed MITE decode cost of the full window (cycles).
    decode_cycles: float = 0.0
    #: Precomputed MITE decode cost of the window's non-LCP part.
    plain_decode_cycles: float = 0.0

    @property
    def pure_lcp(self) -> bool:
        return self.lcp_count == len(self.instructions)

    @property
    def lcp_uops(self) -> int:
        return self.uops - self.plain_uops

    @property
    def cacheable(self) -> bool:
        """At least the plain part of the window can live in the DSB."""
        return self.lcp_count < len(self.instructions)


#: One window of a DSB plan: the access, its set index, its line key and
#: the ways its plain part needs (0 when it cannot be cached).
_PlanStep = tuple[WindowAccess, int, tuple[int, int], int]


class _Plan:
    """A DSB plan: the steps of one loop body on one thread in one mode,
    and the sorted, distinct set indices they touch.

    The engine builds one plan per (body, thread, smt_active) and keeps
    it, so plans compare (and hash) by identity: a plan names its body,
    thread and mode in a run-memo head without hashing the body.
    """

    __slots__ = ("steps", "sets")

    def __init__(self, steps: tuple[_PlanStep, ...], sets: tuple[int, ...]) -> None:
        self.steps = steps
        self.sets = sets


#: A loop body's window accesses and its plans per (thread, smt_active).
_BodyEntry = tuple[tuple[WindowAccess, ...], dict[tuple[int, bool], _Plan]]


@dataclass
class LoopReport:
    """Delivery summary of one (or more, when merged) loop executions."""

    cycles: float = 0.0
    iterations: int = 0
    uops_lsd: int = 0
    uops_dsb: int = 0
    uops_mite: int = 0
    windows_lsd: int = 0
    windows_dsb: int = 0
    windows_mite: int = 0
    switches_to_mite: int = 0
    switches_to_dsb: int = 0
    lcp_stalls: int = 0
    lsd_flushes: int = 0
    lsd_captures: int = 0
    dsb_evictions: int = 0
    energy_nj: float = 0.0
    simulated_iterations: int = 0

    @property
    def total_uops(self) -> int:
        return self.uops_lsd + self.uops_dsb + self.uops_mite

    @property
    def ipc(self) -> float:
        """Retired uops per cycle."""
        return self.total_uops / self.cycles if self.cycles else 0.0

    def merge(self, other: "LoopReport") -> "LoopReport":
        """Accumulate another report into this one (in place) and return self."""
        self.cycles += other.cycles
        self.iterations += other.iterations
        self.uops_lsd += other.uops_lsd
        self.uops_dsb += other.uops_dsb
        self.uops_mite += other.uops_mite
        self.windows_lsd += other.windows_lsd
        self.windows_dsb += other.windows_dsb
        self.windows_mite += other.windows_mite
        self.switches_to_mite += other.switches_to_mite
        self.switches_to_dsb += other.switches_to_dsb
        self.lcp_stalls += other.lcp_stalls
        self.lsd_flushes += other.lsd_flushes
        self.lsd_captures += other.lsd_captures
        self.dsb_evictions += other.dsb_evictions
        self.energy_nj += other.energy_nj
        self.simulated_iterations += other.simulated_iterations
        return self

    def dominant_path(self) -> DeliveryPath:
        """Path that delivered the most uops."""
        counts = {
            DeliveryPath.LSD: self.uops_lsd,
            DeliveryPath.DSB: self.uops_dsb,
            DeliveryPath.MITE: self.uops_mite,
        }
        return max(counts, key=counts.get)  # type: ignore[arg-type]


#: ``LoopReport`` field names in declaration order, read once here
#: instead of through ``dataclasses.fields`` per call.
_REPORT_FIELDS = tuple(f.name for f in fields(LoopReport))
#: A report's field values, in declaration order (``LoopReport(*values)``
#: rebuilds it), and where ``iterations`` sits among them.
_report_values = attrgetter(*_REPORT_FIELDS)
_ITERATIONS = _REPORT_FIELDS.index("iterations")
#: Where the float fields sit among a report's values.
_FLOATS = tuple(i for i, f in enumerate(fields(LoopReport)) if f.type == "float")


def _steady_key(report: LoopReport) -> tuple:
    """Equality key for steady-state detection, of one simulated
    iteration or one SMT round.

    Every report field participates: two iterations only count as "the
    same" when the full delivery profile repeats.  A key over a subset
    (cycles alone, or a few uop counts) let iterations with differing
    switch/flush/eviction counters compare equal, so extrapolation
    scaled the wrong per-iteration deltas.  Floats are rounded to 9
    decimals to absorb representation jitter only.
    """
    values = list(_report_values(report))
    for i in _FLOATS:
        values[i] = round(values[i], 9)
    return tuple(values)


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


class _FetchLog:
    """Stands in for the L1I while a run is recorded: forwards every
    fetch and keeps its address, so a replay can re-issue them in order."""

    __slots__ = ("cache", "addrs")

    def __init__(self, cache) -> None:
        self.cache = cache
        self.addrs: list[int] = []

    def access(self, addr: int) -> bool:
        self.addrs.append(addr)
        return self.cache.access(addr)


class _Prefix(NamedTuple):
    """A loop driver's *simulated prefix*: the iterations (or SMT rounds)
    it ran through :meth:`FrontendEngine.run_iteration` until the cost
    repeated, and what its finish reads of them.  A finish only reads
    it, so a memoized prefix stays as recorded."""

    #: Whether the cost reached a period-1/2 steady state.
    steady: bool
    #: The least trip counts, one per thread, whose runs simulate this
    #: same prefix; ``None`` when the prefix depends on the counts.
    needs: tuple[int, ...] | None
    #: Field values of the running totals, one per thread.
    reports: tuple[tuple, ...]
    #: What the finish extrapolates from; its shape is the driver's.
    last: tuple


class _RunEffect(NamedTuple):
    """Everything one recorded loop run (or simulated prefix) did, as
    :meth:`FrontendEngine._replay` re-applies it.  Stats are deltas; the
    rest is the state the run left."""

    #: Field values of each returned ``LoopReport``, or the ``_Prefix``.
    result: "tuple[tuple, ...] | _Prefix"
    #: Contents (LRU order) and ways in use of each touched DSB set.
    sets: tuple[tuple[tuple[LineKey, DsbLine], ...], ...]
    ways: tuple[int, ...]
    #: hits, misses, insertions, evictions, uncacheable lookups.
    dsb_stats: tuple[int, ...]
    #: Per LSD: (state, candidate, qualify streak, loop windows).
    lsds: tuple[tuple, ...]
    #: Per LSD: captures, flushes, streamed iterations.
    lsd_stats: tuple[tuple[int, ...], ...]
    #: ``_pending_penalty``, ``_pending_flushes``, ``_last_path``,
    #: ``_mite_streak`` as items.
    threads: tuple[tuple, tuple, tuple, tuple]
    #: L1I fetch addresses, in issue order.
    fetches: tuple[int, ...]


def _dsb_stats(dsb: DecodedStreamBuffer) -> tuple[int, ...]:
    st = dsb.stats
    return (st.hits, st.misses, st.insertions, st.evictions, st.uncacheable_lookups)


def _lsd_state(lsd: LoopStreamDetector) -> tuple:
    return (lsd.state, lsd._candidate, lsd._qualify_streak, lsd._loop_windows)


def _lsd_stats(lsd: LoopStreamDetector) -> tuple[int, ...]:
    st = lsd.stats
    return (st.captures, st.flushes, st.streamed_iterations)


def _delta(after: tuple[int, ...], before: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([a - b for a, b in zip(after, before)])


def _terms(prev: LoopReport | None, last: LoopReport) -> tuple[tuple, ...]:
    """What a tail repeats, from the last two simulated iterations
    (``prev`` only in a period-2 steady state): ``(index, prev value,
    last value)`` for every report field either one sets, with
    ``simulated_iterations`` 0, since extrapolated iterations are not
    simulated ones.  Fields both leave at 0 add nothing, so they are
    left out."""
    last_values = _report_values(replace(last, simulated_iterations=0))
    if prev is None:
        prev_values = (0,) * len(last_values)
    else:
        prev_values = _report_values(replace(prev, simulated_iterations=0))
    return tuple(
        (i, p, q) for i, (p, q) in enumerate(zip(prev_values, last_values)) if p or q
    )


def _extend(values: tuple, terms: tuple, remaining: int, period_two: bool) -> list:
    """Report field ``values`` plus ``remaining`` unsimulated iterations
    that repeat the :func:`_terms` of the last two simulated ones.

    Period-1 steady states repeat the last iteration.  Period-2 steady
    states alternate the two; the last *simulated* iteration already
    paid ``last``, so the continuation is ``prev, last, prev, ...`` —
    ``ceil(remaining / 2)`` copies of ``prev`` and ``remaining // 2`` of
    ``last``.  Both factors are integers, so integer counters scale
    exactly and the extrapolated totals conserve
    (``total_uops == sum of per-iteration uops``).
    """
    values = list(values)
    if period_two:
        odd, even = (remaining + 1) // 2, remaining // 2
        for i, p, q in terms:
            values[i] += p * odd + q * even
    else:
        for i, _, q in terms:
            values[i] += q * remaining
    return values


def _round_terms(
    prev: tuple[LoopReport, LoopReport] | None,
    last: tuple[LoopReport, LoopReport],
    period_two: bool,
) -> tuple:
    """What an SMT finish extrapolates from the last simulated round
    (and ``prev``, the one before it, in a period-2 steady state): the
    primary's :func:`_terms`, its burst, the secondary's terms, and
    whether the tail alternates."""
    return (
        _terms(None if prev is None else prev[0], last[0]),
        last[0].iterations,
        _terms(None if prev is None else prev[1], last[1]),
        period_two,
    )


class FrontendEngine:
    """Executes loop programs through the modelled frontend.

    One engine corresponds to one physical core: a shared DSB and MITE,
    plus one LSD per hardware thread.

    Parameters
    ----------
    params / energy:
        Model coefficients; defaults are the calibrated values.
    n_threads:
        Hardware threads on the core (1 or 2).
    lsd_enabled:
        Whether the LSD exists/is enabled (microcode patch 2 and two of
        the Table I machines have it disabled).
    """

    #: Iterations simulated before steady-state extrapolation may engage.
    MIN_WARMUP = 4
    #: Upper bound of explicitly simulated iterations per run_loop call.
    MAX_SIMULATED = 64
    #: Interleave rounds simulated before SMT extrapolation may engage.
    MIN_WARMUP_ROUNDS = 6
    #: Upper bound of explicitly simulated rounds per run_smt call.
    MAX_SIMULATED_ROUNDS = 128

    def __init__(
        self,
        params: FrontendParams | None = None,
        energy: EnergyParams | None = None,
        n_threads: int = 2,
        lsd_enabled: bool = True,
        l1i: "SetAssociativeCache | None" = None,
    ) -> None:
        if n_threads not in (1, 2):
            raise ExecutionError(f"cores have 1 or 2 hardware threads, got {n_threads}")
        self.params = params or FrontendParams()
        self.energy = energy or EnergyParams()
        self.n_threads = n_threads
        #: L1 instruction cache; only MITE fetches touch it (DSB/LSD hits
        #: bypass the L1I entirely, which is why the frontend channels are
        #: invisible to instruction-cache monitors, Section III-B).
        self.l1i = l1i
        self.dsb = DecodedStreamBuffer(self.params)
        self.mite = MiteDecoder(self.params)
        self.lsds = {
            thread: LoopStreamDetector(self.params, enabled=lsd_enabled)
            for thread in range(n_threads)
        }
        self.dsb.add_eviction_listener(self._on_dsb_eviction)
        # Penalties charged to a thread's next iteration (LSD flush, ...).
        self._pending_penalty = {thread: 0.0 for thread in range(n_threads)}
        # Consecutive MITE-delivered windows per thread (fill throttling).
        self._mite_streak = {thread: 0 for thread in range(n_threads)}
        self._pending_flushes = {thread: 0 for thread in range(n_threads)}
        # Last delivery path per thread, for switch-penalty accounting.
        self._last_path: dict[int, DeliveryPath | None] = {
            thread: None for thread in range(n_threads)
        }
        # Per loop body: its window accesses, and the DSB plans built
        # from them per (thread, smt_active).
        self._window_cache: dict[tuple[MixBlock, ...], _BodyEntry] = {}
        # The same plans per (program, thread, smt_active): a program
        # hashes in O(1), a body only by hashing every block.
        self._program_plans: dict[tuple[LoopProgram, int, bool], _Plan] = {}
        # Per sweep head (programs, thread, smt_active): the sorted DSB
        # sets its programs' plans touch.
        self._sweep_sets: dict[tuple, tuple[int, ...]] = {}
        # (registry, sim.points counter, sim.latency histogram) — rebuilt
        # whenever the process registry is swapped (use_registry in tests).
        self._sim_cache: tuple | None = None
        # (registry, sim.replays counter), rebuilt the same way.
        self._replays_cache: tuple | None = None
        # Recorded loop runs, keyed on their arguments and the frontend
        # state they read (see _memo_run); at most RUN_MEMO_LIMIT.
        self._runs: dict[tuple, _RunEffect] = {}

    # ------------------------------------------------------------------
    # static program analysis
    # ------------------------------------------------------------------
    def window_accesses(self, program: LoopProgram) -> tuple[WindowAccess, ...]:
        """Split the loop body into per-window instruction groups.

        Each instruction is attributed to the window containing its first
        byte.  Results are cached by body *content* (MixBlock is a frozen,
        hashable dataclass) — two different bodies placed at the same
        addresses, e.g. JIT-recycled code regions, must not alias.
        """
        return self._window_entry(program.body)[0]

    def _window_entry(self, body: tuple[MixBlock, ...]) -> _BodyEntry:
        entry = self._window_cache.get(body)
        if entry is None:
            entry = (self._split_windows(body), {})
            self._window_cache[body] = entry
        return entry

    def _split_windows(self, body: tuple[MixBlock, ...]) -> tuple[WindowAccess, ...]:
        accesses: list[WindowAccess] = []
        wb = self.params.window_bytes
        for block in body:
            groups: dict[int, list[Instruction]] = {}
            order: list[int] = []
            for addr, instruction in block.instruction_addresses():
                window = addr - (addr % wb)
                if window not in groups:
                    groups[window] = []
                    order.append(window)
                groups[window].append(instruction)
            for window in order:
                instructions = tuple(groups[window])
                lcp_runs = sum(
                    1
                    for i, instr in enumerate(instructions)
                    if instr.has_lcp
                    and (i == 0 or not instructions[i - 1].has_lcp)
                )
                bytes_used = sum(i.length for i in instructions)
                full_decode = self.mite.decode_window(list(instructions), bytes_used)
                plain = [i for i in instructions if not i.has_lcp]
                plain_decode = self.mite.decode_window(plain, bytes_used)
                accesses.append(
                    WindowAccess(
                        window_addr=window,
                        instructions=instructions,
                        uops=sum(i.uop_count for i in instructions),
                        plain_uops=sum(i.uop_count for i in plain),
                        bytes_used=bytes_used,
                        lcp_count=sum(1 for i in instructions if i.has_lcp),
                        lcp_runs=lcp_runs,
                        spans_from_misaligned=block.spans_windows,
                        decode_cycles=full_decode.cycles,
                        plain_decode_cycles=plain_decode.cycles,
                    )
                )
        return tuple(accesses)

    def _plan(self, program: LoopProgram, thread: int, smt_active: bool) -> _Plan:
        """Each window access of ``program`` with its DSB set index, line
        key and way count on ``thread`` under ``smt_active``, plus the
        sorted set indices those steps touch.

        Everything here is static in (body, thread, mode), so it is built
        once per body and mode and kept with the body's window accesses.
        It is looked up by program first, so programs that share a body
        (different trip counts) get the identical plan.
        """
        key = (program, thread, smt_active)
        plan = self._program_plans.get(key)
        if plan is not None:
            return plan
        accesses, plans = self._window_entry(program.body)
        plan = plans.get((thread, smt_active))
        if plan is None:
            dsb = self.dsb
            steps = tuple(
                (
                    access,
                    dsb.effective_index(access.window_addr, smt_active, thread),
                    (thread, access.window_addr),
                    dsb.ways_for_uops(access.plain_uops) if access.cacheable else 0,
                )
                for access in accesses
            )
            # Pure-LCP windows never reach the DSB, so their sets stay out.
            touched = {index for access, index, _, _ in steps if not access.pure_lcp}
            plan = _Plan(steps, tuple(sorted(touched)))
            plans[(thread, smt_active)] = plan
        self._program_plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    # eviction plumbing (DSB -> LSD inclusivity)
    # ------------------------------------------------------------------
    def _on_dsb_eviction(self, thread: int, window_addr: int) -> None:
        if not self.params.lsd_inclusive:
            return  # ablation: non-inclusive hierarchy, LSD keeps streaming
        lsd = self.lsds.get(thread)
        if lsd is not None and lsd.on_dsb_eviction(window_addr):
            self._pending_penalty[thread] += self.params.lsd_flush_penalty
            self._pending_flushes[thread] += 1

    def _notify_misaligned_touch(
        self, thread: int, window_addr: int, smt_active: bool
    ) -> None:
        """Cross-thread LSD disturbance from misaligned accesses.

        A thread touching a window-spanning block perturbs any *sibling*
        thread's LSD stream whose loop occupies the same (SMT-folded)
        DSB set — the mechanism behind the MT misalignment attack
        (Section IV-B).  Only relevant while both threads share the
        frontend.
        """
        if not smt_active:
            return
        half_sets = self.params.dsb_sets // 2
        for other, lsd in self.lsds.items():
            if other == thread:
                continue
            if lsd.on_misaligned_set_touch(
                window_addr, self.params.window_bytes, half_sets
            ):
                self._pending_penalty[other] += self.params.lsd_flush_penalty
                self._pending_flushes[other] += 1

    # ------------------------------------------------------------------
    # per-iteration execution
    # ------------------------------------------------------------------
    def run_iteration(
        self, program: LoopProgram, thread: int = 0, smt_active: bool = False
    ) -> LoopReport:
        """Execute one iteration of ``program`` on ``thread``; mutate state.
        Returns the iteration's report (``iterations`` and
        ``simulated_iterations`` both 1)."""
        if thread not in self.lsds:
            raise ExecutionError(f"no hardware thread {thread} on this core")
        params = self.params
        energy = self.energy
        lsd = self.lsds[thread]

        flushes = self._pending_flushes[thread]
        penalty = self._pending_penalty[thread]
        self._pending_flushes[thread] = 0
        self._pending_penalty[thread] = 0.0

        if lsd.is_streaming(program):
            report = self._lsd_iteration(program, thread, penalty, flushes, smt_active)
            lsd.observe_iteration(program, all_from_dsb=True)
            return report

        plan = self._plan(program, thread, smt_active).steps
        lookup_at = self.dsb.lookup_at
        insert_at = self.dsb.insert_at
        l1i = self.l1i
        uops_dsb = uops_mite = 0
        windows_dsb = windows_mite = 0
        to_mite = to_dsb = 0
        lcp_stalls = 0
        evictions = 0
        mite_cycles = 0.0
        misalign_cycles = 0.0
        # The fill gate resets at the loop-back branch: throttling only
        # engages for sustained miss runs *within* one iteration (the
        # far-over-capacity straight-line loops of Figure 3), never for
        # the attacks' short overflow-by-one bursts.
        mite_streak = 0
        streak_limit = params.mite_fill_streak_limit
        path = self._last_path[thread]
        for access, index, key, ways in plan:
            if access.lcp_count == 0:
                # Plain window: DSB on hit, MITE + fill on miss.
                if lookup_at(index, key):
                    uops_dsb += access.uops
                    windows_dsb += 1
                    mite_streak = 0
                    if params.uniform_delivery:
                        # Defense: hits are padded to legacy-decode pace.
                        mite_cycles += access.decode_cycles
                    if access.spans_from_misaligned:
                        misalign_cycles += params.misalign_dsb_penalty
                    if path is DeliveryPath.MITE:
                        to_dsb += 1
                    path = DeliveryPath.DSB
                else:
                    if l1i is not None:
                        l1i.access(access.window_addr)
                    mite_cycles += access.decode_cycles
                    uops_mite += access.uops
                    windows_mite += 1
                    if path in (DeliveryPath.DSB, DeliveryPath.LSD):
                        to_mite += 1
                    path = DeliveryPath.MITE
                    mite_streak += 1
                    if mite_streak <= streak_limit:
                        # Sustained MITE streaks stop filling the DSB, so
                        # far-over-capacity loops keep a stable resident
                        # prefix instead of thrashing it (Figure 3).
                        evictions += len(insert_at(index, key, access.uops, ways))
                if access.spans_from_misaligned:
                    self._notify_misaligned_touch(thread, access.window_addr, smt_active)
            elif access.pure_lcp:
                # LCP-only window: never cached, always legacy-decoded.
                if l1i is not None:
                    l1i.access(access.window_addr)
                mite_cycles += access.decode_cycles
                lcp_stalls += access.lcp_count
                uops_mite += access.uops
                windows_mite += 1
                if path in (DeliveryPath.DSB, DeliveryPath.LSD):
                    to_mite += 1
                path = DeliveryPath.MITE
            else:
                # Mixed window: plain uops via DSB (once cached), LCP
                # uops via MITE, one DSB->MITE->DSB round trip per
                # maximal LCP run (the Figure 6 / slow-switch mechanism).
                plain_hit = lookup_at(index, key)
                if plain_hit:
                    uops_dsb += access.plain_uops
                    windows_dsb += 1
                    if path is DeliveryPath.MITE:
                        to_dsb += 1
                else:
                    if l1i is not None:
                        l1i.access(access.window_addr)
                    mite_cycles += access.plain_decode_cycles
                    uops_mite += access.plain_uops
                    windows_mite += 1
                    if path in (DeliveryPath.DSB, DeliveryPath.LSD):
                        to_mite += 1
                    evictions += len(insert_at(index, key, access.plain_uops, ways))
                # The LCP part always issues from MITE.
                uops_mite += access.lcp_uops
                lcp_stalls += access.lcp_count
                mite_cycles += access.lcp_count * 1.0  # sequential decode
                if plain_hit:
                    # Alternation between cached and LCP instructions
                    # forces a switch round trip per LCP run.
                    to_mite += access.lcp_runs
                    to_dsb += access.lcp_runs
                    path = DeliveryPath.DSB
                else:
                    path = DeliveryPath.MITE
        self._last_path[thread] = path
        self._mite_streak[thread] = mite_streak

        base = (uops_dsb + uops_mite) / params.issue_width
        frontend = (
            windows_dsb * params.dsb_window_overhead
            + misalign_cycles
            + mite_cycles
            + to_mite * params.dsb_to_mite_penalty
            + to_dsb * params.mite_to_dsb_penalty
            + lcp_stalls * params.lcp_stall
        )
        if smt_active:
            frontend *= params.smt_frontend_factor
        cycles = base + frontend + params.loop_iteration_overhead + penalty

        was_streaming_before = lsd.is_streaming(program)
        lsd.observe_iteration(program, all_from_dsb=(windows_mite == 0))
        captures = 0
        if not was_streaming_before and lsd.is_streaming(program):
            captures = 1
            cycles += params.lsd_capture_cost

        energy_nj = (
            uops_dsb * energy.dsb_uop_energy
            + uops_mite * energy.mite_uop_energy
            + cycles * energy.cycle_energy
            + lcp_stalls * energy.lcp_stall_energy
            + (to_mite + to_dsb) * energy.switch_energy
        )
        return LoopReport(
            cycles=cycles,
            iterations=1,
            uops_lsd=0,
            uops_dsb=uops_dsb,
            uops_mite=uops_mite,
            windows_lsd=0,
            windows_dsb=windows_dsb,
            windows_mite=windows_mite,
            switches_to_mite=to_mite,
            switches_to_dsb=to_dsb,
            lcp_stalls=lcp_stalls,
            lsd_flushes=flushes,
            lsd_captures=captures,
            dsb_evictions=evictions,
            energy_nj=energy_nj,
            simulated_iterations=1,
        )

    def _lsd_iteration(
        self,
        program: LoopProgram,
        thread: int,
        penalty: float,
        flushes: int,
        smt_active: bool,
    ) -> LoopReport:
        """Report of an iteration streamed entirely from the LSD."""
        params = self.params
        uops = program.uops_per_iteration
        windows = program.window_events_per_iteration
        base = uops / params.issue_width
        frontend = windows * params.lsd_window_overhead
        if params.uniform_delivery:
            # Defense: streamed windows are padded to legacy-decode pace.
            frontend += sum(a.decode_cycles for a in self.window_accesses(program))
        if smt_active:
            frontend *= params.smt_frontend_factor
        cycles = base + frontend + params.loop_iteration_overhead + penalty
        energy_nj = uops * self.energy.lsd_uop_energy + cycles * self.energy.cycle_energy
        self._last_path[thread] = DeliveryPath.LSD
        return LoopReport(
            cycles=cycles,
            iterations=1,
            uops_lsd=uops,
            uops_dsb=0,
            uops_mite=0,
            windows_lsd=windows,
            windows_dsb=0,
            windows_mite=0,
            switches_to_mite=0,
            switches_to_dsb=0,
            lcp_stalls=0,
            lsd_flushes=flushes,
            lsd_captures=0,
            dsb_evictions=0,
            energy_nj=energy_nj,
            simulated_iterations=1,
        )

    # ------------------------------------------------------------------
    # loop execution
    # ------------------------------------------------------------------
    def _sim_instruments(self, registry):
        """``sim.points`` / ``sim.latency``, cached per registry."""
        cache = self._sim_cache
        if cache is None or cache[0] is not registry:
            cache = (
                registry,
                registry.counter("sim.points"),
                registry.histogram("sim.latency", edges=SIM_LATENCY_EDGES),
            )
            self._sim_cache = cache
        return cache[1], cache[2]

    def run_loop(
        self,
        program: LoopProgram,
        thread: int = 0,
        smt_active: bool = False,
        exact: bool = False,
    ) -> LoopReport:
        """Execute all iterations of ``program`` on ``thread``.

        ``exact=True`` disables steady-state extrapolation and simulates
        every iteration (used by tests and short loops).  The run goes
        through the run memo (:meth:`_memo_run`), so a run from an entry
        state already seen replays instead of being interpreted.
        """
        registry = get_registry()
        start = registry.clock()
        plan = self._plan(program, thread, smt_active)
        # The plan names the body, thread and mode.
        (report,) = self._memo_run(
            (program, thread, smt_active, exact),
            plan.sets,
            lambda: self._interpret(program, thread, smt_active, exact),
            finish=lambda prefix: (self._finish(program, thread, smt_active, prefix),),
            prefix=None if exact else (plan, (program.iterations,)),
        )
        points, latency = self._sim_instruments(registry)
        points.inc()
        latency.observe(registry.clock() - start)
        return report

    def run_loops(
        self,
        programs: tuple[LoopProgram, ...],
        thread: int = 0,
        smt_active: bool = False,
    ) -> tuple[LoopReport, ...]:
        """Run ``programs`` one after another on ``thread``: a *sweep*.

        Equal to ``run_loop`` on each program in turn, and memoized as one
        run: a sweep from an entry state already seen replays all its runs
        at once.  Otherwise each ``run_loop`` goes through the memo itself.
        A replayed sweep counts one ``sim.points`` and one ``sim.replays``
        per program, and one ``sim.latency`` observation for the sweep.
        """
        programs = tuple(programs)
        registry = get_registry()
        start = registry.clock()
        interpreted = False

        def run() -> tuple[LoopReport, ...]:
            nonlocal interpreted
            interpreted = True
            return tuple([self.run_loop(p, thread, smt_active) for p in programs])

        # The head starts with a tuple, never equal to the program that
        # starts a single run's or an SMT pair's head.
        head = (programs, thread, smt_active)
        sets = self._sweep_sets.get(head)
        if sets is None:
            plans = [self._plan(p, thread, smt_active) for p in programs]
            sets = tuple(sorted({i for plan in plans for i in plan.sets}))
            self._sweep_sets[head] = sets
        reports = self._memo_run(head, sets, run, runs=len(programs))
        if not interpreted:
            points, latency = self._sim_instruments(registry)
            points.inc(len(programs))
            latency.observe(registry.clock() - start)
        return reports

    def _interpret(
        self, program: LoopProgram, thread: int, smt_active: bool, exact: bool
    ) -> _Prefix:
        """The iteration driver's *simulated prefix*: every iteration goes
        through :meth:`run_iteration` until the per-iteration cost repeats
        with period 1 or 2 (or the simulation limit).  Nothing here reads
        the trip count but the limit, so a prefix that reached a steady
        state after ``k`` iterations is the prefix of every count ``>= k``."""
        report = LoopReport()
        history: list[tuple] = []
        iteration = 0
        limit = program.iterations if exact else min(program.iterations, self.MAX_SIMULATED)
        steady = False
        prev = last = None
        # Pre-capture DSB iterations look steady but are not: a loop the
        # LSD could still lock onto must be simulated past the detection
        # latency before extrapolation may engage.
        min_warmup = self.MIN_WARMUP
        if self.lsds[thread].structurally_qualifies(program):
            min_warmup = max(min_warmup, self.params.lsd_detect_iterations + 2)
        while iteration < limit:
            prev, last = last, self.run_iteration(program, thread, smt_active)
            report.merge(last)
            history.append(_steady_key(last))
            iteration += 1
            if not exact and iteration >= min_warmup and self._is_steady(history):
                steady = True
                break
        period_two = steady and history[-1] != history[-2]
        return _Prefix(
            steady,
            (iteration,) if steady else None,
            (_report_values(report),),
            (_terms(prev if period_two else None, last), period_two),
        )

    def _finish(
        self, program: LoopProgram, thread: int, smt_active: bool, prefix: _Prefix
    ) -> LoopReport:
        """The rest of a run after its simulated prefix, which is all that
        depends on the trip count: the remaining iterations are
        extrapolated analytically via :func:`_extend`, then the loop
        exits."""
        (values,) = prefix.reports
        terms, period_two = prefix.last
        lsd = self.lsds[thread]
        remaining = program.iterations - values[_ITERATIONS]
        if remaining > 0 and not prefix.steady:
            # Hit MAX_SIMULATED without period-1/2 convergence: run one
            # more live iteration and repeat it for the tail.
            last = self.run_iteration(program, thread, smt_active)
            values = _report_values(LoopReport(*values).merge(last))
            terms = _terms(None, last)
            remaining -= 1
        if remaining > 0:
            values = _extend(values, terms, remaining, period_two)
            if lsd.is_streaming(program):
                lsd.stats.streamed_iterations += remaining
        report = LoopReport(*values)
        # Loop exit: the terminal backward branch mispredicts and any LSD
        # stream for this loop ends (no flush penalty is charged to the
        # *next* loop; the exit cost covers it).
        report.cycles += self.params.loop_exit_mispredict
        report.energy_nj += self.params.loop_exit_mispredict * self.energy.cycle_energy
        lsd.flush()
        self._last_path[thread] = None
        return report

    # ------------------------------------------------------------------
    # two hardware threads
    # ------------------------------------------------------------------
    def run_smt(
        self, primary: LoopProgram, secondary: LoopProgram, exact: bool = False
    ) -> SmtRunResult:
        """Run ``primary`` on thread 0 and ``secondary`` on thread 1
        concurrently.

        Iterations interleave in *rounds* of ``ratio`` primary iterations
        and one secondary iteration, so both loops finish at roughly the
        same time, like two free-running threads.  Both threads run in
        SMT mode (folded DSB index, shared decode bandwidth) for the
        whole overlap; the primary's leftover iterations then drain
        single-threaded, where its DSB index mapping reverts: the
        repartitioning the paper's Figure 2 exposes.

        Like :meth:`run_loop`, the run is a simulated prefix
        (:meth:`_interleave`) and a finish (:meth:`_smt_finish`) through
        the run memo.  The prefix head names both bodies and the ratio
        but not the counts, so the MT channels' slipped bits, which run
        the same two loops at new counts, replay it and finish live.
        """
        # Both threads' SMT plans, plus the primary's single-thread plan
        # for the drain.
        plans = (self._plan(primary, 0, True), self._plan(secondary, 1, True))
        sets = {*plans[0].sets, *plans[1].sets, *self._plan(primary, 0, False).sets}
        ratio = max(1, round(primary.iterations / secondary.iterations))
        # The SMT plans name both bodies.
        reports = self._memo_run(
            (primary, secondary, exact),
            tuple(sorted(sets)),
            lambda: self._interleave(primary, secondary, ratio, exact),
            finish=lambda prefix: self._smt_finish(primary, secondary, ratio, exact, prefix),
            prefix=None if exact else ((*plans, ratio), (primary.iterations, secondary.iterations)),
        )
        return SmtRunResult(*reports)

    def _round(
        self, primary: LoopProgram, secondary: LoopProgram, burst: int
    ) -> tuple[LoopReport, LoopReport]:
        """One interleave round: ``burst`` primary iterations, then one
        secondary iteration, both in SMT mode."""
        round_primary = LoopReport()
        for _ in range(burst):
            round_primary.merge(self.run_iteration(primary, 0, True))
        return round_primary, self.run_iteration(secondary, 1, True)

    def _interleave(
        self, primary: LoopProgram, secondary: LoopProgram, ratio: int, exact: bool
    ) -> _Prefix:
        """The SMT driver's simulated prefix: interleave rounds until both
        threads' round reports repeat with period 1 or 2 (or the
        simulation limit), keyed as :meth:`_interpret` keys iterations.

        Trip counts enter only through the limit and the bursts, so a
        prefix that reached a steady state after ``r`` full-burst rounds
        is the prefix of every run with the same bodies and ratio, at
        least ``r * ratio`` primary and more than ``r`` secondary
        iterations.
        """
        total_rounds = secondary.iterations
        primary_left = primary.iterations
        primary_report = LoopReport()
        secondary_report = LoopReport()
        history: list[tuple] = []
        rounds = 0
        limit = total_rounds if exact else min(total_rounds, self.MAX_SIMULATED_ROUNDS)
        steady = False
        prev = last = None
        while rounds < limit:
            prev, last = last, self._round(primary, secondary, min(ratio, primary_left))
            primary_left -= last[0].iterations
            primary_report.merge(last[0])
            secondary_report.merge(last[1])
            rounds += 1
            history.append((_steady_key(last[0]), _steady_key(last[1])))
            if (
                not exact
                and rounds >= self.MIN_WARMUP_ROUNDS
                and self._is_steady(history)
                and rounds < total_rounds
            ):
                steady = True
                break
        period_two = steady and history[-1] != history[-2]
        full = steady and primary_report.iterations == rounds * ratio
        return _Prefix(
            steady,
            (rounds * ratio, rounds + 1) if full else None,
            (_report_values(primary_report), _report_values(secondary_report)),
            _round_terms(prev if period_two else None, last, period_two) if steady else None,
        )

    def _smt_finish(
        self,
        primary: LoopProgram,
        secondary: LoopProgram,
        ratio: int,
        exact: bool,
        prefix: _Prefix,
    ) -> tuple[LoopReport, LoopReport]:
        """The rest of an SMT run after its simulated prefix: extrapolate
        the remaining rounds via :func:`_extend`, drain the primary's
        leftover iterations, charge both loop exits.  ``prefix`` is only
        read."""
        primary_values, secondary_values = prefix.reports
        repeats = prefix.last
        remaining = secondary.iterations - secondary_values[_ITERATIONS]
        primary_left = primary.iterations - primary_values[_ITERATIONS]
        if remaining > 0 and not prefix.steady:
            # Hit MAX_SIMULATED_ROUNDS without period-1/2 convergence: run
            # one more live round and repeat it for the rest.
            last = self._round(primary, secondary, min(ratio, primary_left))
            primary_left -= last[0].iterations
            primary_values = _report_values(LoopReport(*primary_values).merge(last[0]))
            secondary_values = _report_values(LoopReport(*secondary_values).merge(last[1]))
            repeats = _round_terms(None, last, False)
            remaining -= 1
        if remaining > 0:
            primary_terms, burst, secondary_terms, period_two = repeats
            secondary_values = _extend(secondary_values, secondary_terms, remaining, period_two)
            # The primary side must never extrapolate past its own
            # iteration budget (the last simulated round's burst may
            # exceed what remains when the interleave ratio rounds).  A
            # period-2 tail's two rounds have equal bursts: a short burst
            # only ever comes once, followed by empty ones.
            if burst > 0 and primary_left > 0:
                full_rounds = min(remaining, primary_left // burst)
                if full_rounds > 0:
                    primary_values = _extend(
                        primary_values, primary_terms, full_rounds, period_two
                    )
                    primary_left -= full_rounds * burst
        primary_report = LoopReport(*primary_values)
        secondary_report = LoopReport(*secondary_values)

        # Drain any leftover primary iterations single-threaded (the
        # sender went idle; DSB indexing reverts to all sets).
        primary_drained = False
        if primary_left > 0:
            drain = primary.with_iterations(primary_left)
            primary_report.merge(self.run_loop(drain, thread=0, smt_active=False, exact=exact))
            primary_drained = True  # run_loop already charged the loop exit

        # Loop exits for both threads (unless already charged by a drain).
        exit_cost = self.params.loop_exit_mispredict
        targets = [(secondary_report, 1)]
        if not primary_drained:
            targets.append((primary_report, 0))
        for report, thread in targets:
            report.cycles += exit_cost
            report.energy_nj += exit_cost * self.energy.cycle_energy
            self.lsds[thread].flush()
        if primary_drained:
            self.lsds[0].flush()
        return primary_report, secondary_report

    # ------------------------------------------------------------------
    # whole-run memo
    # ------------------------------------------------------------------
    def _memo_run(
        self,
        head: tuple,
        sets: tuple[int, ...],
        run: Callable[[], "tuple[LoopReport, ...] | _Prefix"],
        runs: int = 1,
        finish: "Callable[[_Prefix], tuple[LoopReport, ...]] | None" = None,
        prefix: tuple[object, tuple[int, ...]] | None = None,
    ) -> tuple[LoopReport, ...]:
        """Call ``run`` (one whole loop-run driver), or replay its record.

        ``head`` names the run: ``(program, thread, smt_active, exact)``
        for one thread, ``(primary, secondary, exact)`` for an SMT pair,
        ``(programs, thread, smt_active)`` for a sweep of ``runs`` loop
        runs.  A prefix head (below) is a plan, or starts with one, so no
        two kinds of head are ever equal.
        ``sets`` lists every DSB set the run can touch.  The run is
        keyed on ``head`` plus everything of the frontend it reads: the
        contents of those sets (keys, LRU order, uops and ways), every
        LSD, the per-thread pending penalties and flushes, last paths and
        MITE streaks.  Equal keys therefore mean equal runs, so a repeat
        re-applies the recorded effect — set contents, stat deltas, LSD
        and per-thread state, the L1I fetches in order — and returns
        fresh copies of the recorded reports.

        A loop driver passes ``finish``: ``run`` then only simulates the
        prefix and returns a :class:`_Prefix`, and ``finish`` turns it
        into the reports.  With ``prefix`` — a head without trip counts
        (``plan`` for one thread, ``(primary plan, secondary plan,
        ratio)`` for an SMT pair) and the run's counts, one per thread —
        a run whose prefix has ``needs`` records only the prefix, under
        that head, and any run from the same state whose counts are at
        least those ``needs`` replays it and finishes live.  Other runs
        record whole.
        """
        dsb = self.dsb
        if len(dsb._listeners) != 1:
            # A foreign eviction listener must see every call.
            return run() if finish is None else finish(run())
        dsb_sets = dsb._sets
        lsds = self.lsds.values()
        state = (
            tuple([tuple(dsb_sets[i].items()) for i in sets]),
            tuple([(lsd.enabled, _lsd_state(lsd)) for lsd in lsds]),
            tuple(self._pending_penalty.values()),
            tuple(self._pending_flushes.values()),
            tuple(self._last_path.values()),
            tuple(self._mite_streak.values()),
        )
        memo = self._runs
        if prefix is not None:
            prefix_key = (prefix[0], state)
            effect = memo.get(prefix_key)
            if effect is not None and all(map(ge, prefix[1], effect.result.needs)):
                self._replay(sets, effect, runs)
                return finish(effect.result)
        key = (head, state)
        effect = memo.get(key)
        if effect is not None:
            self._replay(sets, effect, runs)
            return tuple([LoopReport(*values) for values in effect.result])

        dsb_before = _dsb_stats(dsb)
        lsd_before = [_lsd_stats(lsd) for lsd in lsds]
        l1i = self.l1i
        log = None if l1i is None else _FetchLog(l1i)
        if log is not None:
            self.l1i = log
        try:
            result = run()
            whole = prefix is None or result.needs is None
            if whole and finish is not None:
                result = finish(result)
        finally:
            self.l1i = l1i
        if len(memo) >= RUN_MEMO_LIMIT:
            del memo[next(iter(memo))]
        memo[key if whole else prefix_key] = _RunEffect(
            result=tuple([_report_values(report) for report in result]) if whole else result,
            sets=tuple([tuple(dsb_sets[i].items()) for i in sets]),
            ways=tuple([dsb._ways[i] for i in sets]),
            dsb_stats=_delta(_dsb_stats(dsb), dsb_before),
            lsds=tuple([_lsd_state(lsd) for lsd in lsds]),
            lsd_stats=tuple(
                [_delta(_lsd_stats(lsd), before) for lsd, before in zip(lsds, lsd_before)]
            ),
            threads=(
                tuple(self._pending_penalty.items()),
                tuple(self._pending_flushes.items()),
                tuple(self._last_path.items()),
                tuple(self._mite_streak.items()),
            ),
            fetches=() if log is None else tuple(log.addrs),
        )
        return result if whole else finish(result)

    def _replay(self, sets: tuple[int, ...], effect: _RunEffect, runs: int) -> None:
        """Re-apply a recorded run's effect (see :meth:`_memo_run`); it
        counts as ``runs`` loop runs in ``sim.replays``."""
        dsb = self.dsb
        dsb_sets = dsb._sets
        ways = dsb._ways
        for index, items, used in zip(sets, effect.sets, effect.ways):
            entry_set = dsb_sets[index]
            entry_set.clear()
            entry_set.update(items)
            ways[index] = used
        st = dsb.stats
        hits, misses, insertions, evictions, uncacheable = effect.dsb_stats
        st.hits += hits
        st.misses += misses
        st.insertions += insertions
        st.evictions += evictions
        st.uncacheable_lookups += uncacheable
        for lsd, state, stats in zip(self.lsds.values(), effect.lsds, effect.lsd_stats):
            lsd.state, lsd._candidate, lsd._qualify_streak, lsd._loop_windows = state
            lsd.stats.captures += stats[0]
            lsd.stats.flushes += stats[1]
            lsd.stats.streamed_iterations += stats[2]
        penalty, flushes, last_path, mite_streak = effect.threads
        self._pending_penalty.update(penalty)
        self._pending_flushes.update(flushes)
        self._last_path.update(last_path)
        self._mite_streak.update(mite_streak)
        l1i = self.l1i
        if l1i is not None:
            for addr in effect.fetches:
                l1i.access(addr)
        registry = get_registry()
        cache = self._replays_cache
        if cache is None or cache[0] is not registry:
            cache = self._replays_cache = (registry, registry.counter("sim.replays"))
        cache[1].inc(runs)

    @staticmethod
    def _is_steady(history: list[tuple]) -> bool:
        """Detect steady-state keys (of iterations or rounds) repeating
        with period 1 or 2."""
        if len(history) >= 2 and history[-1] == history[-2]:
            return True
        if len(history) >= 4 and history[-1] == history[-3] and history[-2] == history[-4]:
            return True
        return False

    def reset_thread(self, thread: int) -> None:
        """Forget a thread's frontend state (context switch / teardown)."""
        self.lsds[thread].flush()
        self.dsb.flush_thread(thread)
        self._last_path[thread] = None
        self._mite_streak[thread] = 0
        self._pending_penalty[thread] = 0.0
        self._pending_flushes[thread] = 0
