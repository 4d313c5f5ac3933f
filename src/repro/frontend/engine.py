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

For long loops the engine detects a steady state (per-iteration cost
repeating with period 1 or 2) and extrapolates the remaining iterations
analytically, which lets the 20-million-iteration experiments of
Section III run in milliseconds without changing the modelled state
machine behaviour.

Whole loop runs are memoized per engine (:meth:`FrontendEngine.memo_run`):
a run that starts from frontend state already seen with the same
arguments replays its recorded reports and state changes instead of
being interpreted again.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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

__all__ = ["FrontendEngine", "LoopReport", "WindowAccess"]

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
#: A DSB plan and the sorted, distinct set indices its steps touch.
_Plan = tuple[tuple[_PlanStep, ...], tuple[int, ...]]
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

    def add_iteration(self, cost: "_IterationCost") -> "LoopReport":
        """Accumulate one simulated iteration; same as
        ``merge(cost.to_report())`` without building the report."""
        self.cycles += cost.cycles
        self.iterations += 1
        self.uops_lsd += cost.uops_lsd
        self.uops_dsb += cost.uops_dsb
        self.uops_mite += cost.uops_mite
        self.windows_lsd += cost.windows_lsd
        self.windows_dsb += cost.windows_dsb
        self.windows_mite += cost.windows_mite
        self.switches_to_mite += cost.switches_to_mite
        self.switches_to_dsb += cost.switches_to_dsb
        self.lcp_stalls += cost.lcp_stalls
        self.lsd_flushes += cost.lsd_flushes
        self.lsd_captures += cost.lsd_captures
        self.dsb_evictions += cost.dsb_evictions
        self.energy_nj += cost.energy_nj
        self.simulated_iterations += 1
        return self

    def scaled(self, factor: float) -> "LoopReport":
        """Return a copy with every counter multiplied by ``factor``.

        Integral factors (the steady-state extrapolation always passes an
        iteration *count*) multiply integer counters exactly, so scaled
        reports conserve uops: ``scaled(n).total_uops == n * total_uops``.
        Fractional factors fall back to rounding each integer counter,
        which cannot conserve sums — callers that need conservation must
        scale by integers.
        """
        result = LoopReport()
        integral = isinstance(factor, int) or (
            isinstance(factor, float) and factor.is_integer()
        )
        for name in _REPORT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, float):
                setattr(result, name, value * factor)
            elif integral:
                setattr(result, name, value * int(factor))
            else:
                setattr(result, name, round(value * factor))
        return result

    def dominant_path(self) -> DeliveryPath:
        """Path that delivered the most uops."""
        counts = {
            DeliveryPath.LSD: self.uops_lsd,
            DeliveryPath.DSB: self.uops_dsb,
            DeliveryPath.MITE: self.uops_mite,
        }
        return max(counts, key=counts.get)  # type: ignore[arg-type]


#: ``LoopReport`` field names in declaration order: ``scaled`` walks
#: them on every extrapolation, so they are read once here instead of
#: through ``dataclasses.fields`` per call.
_REPORT_FIELDS = tuple(f.name for f in fields(LoopReport))


@dataclass
class _IterationCost:
    """Deterministic cost of a single loop iteration (internal)."""

    cycles: float
    uops_lsd: int
    uops_dsb: int
    uops_mite: int
    windows_lsd: int
    windows_dsb: int
    windows_mite: int
    switches_to_mite: int
    switches_to_dsb: int
    lcp_stalls: int
    lsd_flushes: int
    lsd_captures: int
    dsb_evictions: int
    energy_nj: float

    def key(self) -> tuple:
        """Equality key for steady-state detection.

        Every cost field participates: two iterations only count as
        "the same" when the full delivery profile repeats.  A key over a
        subset (the pre-fix behaviour) let iterations with differing
        switch/flush/eviction counters compare equal, so extrapolation
        could scale the wrong per-iteration deltas.  Floats are rounded
        to 9 decimals to absorb representation jitter only.
        """
        return (
            round(self.cycles, 9),
            self.uops_lsd,
            self.uops_dsb,
            self.uops_mite,
            self.windows_lsd,
            self.windows_dsb,
            self.windows_mite,
            self.switches_to_mite,
            self.switches_to_dsb,
            self.lcp_stalls,
            self.lsd_flushes,
            self.lsd_captures,
            self.dsb_evictions,
            round(self.energy_nj, 9),
        )

    def to_report(self) -> LoopReport:
        return LoopReport(
            cycles=self.cycles,
            iterations=1,
            uops_lsd=self.uops_lsd,
            uops_dsb=self.uops_dsb,
            uops_mite=self.uops_mite,
            windows_lsd=self.windows_lsd,
            windows_dsb=self.windows_dsb,
            windows_mite=self.windows_mite,
            switches_to_mite=self.switches_to_mite,
            switches_to_dsb=self.switches_to_dsb,
            lcp_stalls=self.lcp_stalls,
            lsd_flushes=self.lsd_flushes,
            lsd_captures=self.lsd_captures,
            dsb_evictions=self.dsb_evictions,
            energy_nj=self.energy_nj,
            simulated_iterations=1,
        )


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


class _RunEffect(NamedTuple):
    """Everything one recorded loop run did, as :meth:`FrontendEngine._replay`
    re-applies it.  Stats are deltas; the rest is the state the run left."""

    #: Field values of each returned ``LoopReport``.
    reports: tuple[tuple, ...]
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


def extrapolate_tail(
    prev_cost: "_IterationCost | None",
    last_cost: "_IterationCost",
    remaining: int,
    period_two: bool,
) -> LoopReport:
    """Analytic report for ``remaining`` unsimulated iterations.

    Period-1 steady states repeat ``last_cost``.  Period-2 steady states
    alternate the two costs; the last *simulated* iteration already paid
    ``last_cost``, so the continuation is ``prev, last, prev, ...`` —
    ``ceil(remaining / 2)`` copies of ``prev_cost`` and ``remaining // 2``
    of ``last_cost``.  Both factors are integers, so integer counters
    scale exactly and the extrapolated totals conserve
    (``total_uops == sum of per-iteration uops``), which the old
    single-cost float-factor path did not guarantee.
    """
    if period_two and prev_cost is not None:
        tail = prev_cost.to_report().scaled((remaining + 1) // 2)
        tail.merge(last_cost.to_report().scaled(remaining // 2))
    else:
        tail = last_cost.to_report().scaled(remaining)
    tail.simulated_iterations = 0
    tail.iterations = remaining
    return tail


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
        # (registry, sim.points counter, sim.latency histogram) — rebuilt
        # whenever the process registry is swapped (use_registry in tests).
        self._sim_cache: tuple | None = None
        # (registry, sim.replays counter), rebuilt the same way.
        self._replays_cache: tuple | None = None
        # Recorded loop runs, keyed on their arguments and the frontend
        # state they read (see memo_run); at most RUN_MEMO_LIMIT.
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
        """
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
            plan = (steps, tuple(sorted(touched)))
            plans[(thread, smt_active)] = plan
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
    ) -> _IterationCost:
        """Execute one iteration of ``program`` on ``thread``; mutate state."""
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
            cost = self._lsd_iteration(program, thread, penalty, flushes, smt_active)
            lsd.observe_iteration(program, all_from_dsb=True)
            return cost

        plan = self._plan(program, thread, smt_active)[0]
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
        return _IterationCost(
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
            lsd_flushes=flushes,
            lsd_captures=captures,
            dsb_evictions=evictions,
            energy_nj=energy_nj,
        )

    def _lsd_iteration(
        self,
        program: LoopProgram,
        thread: int,
        penalty: float,
        flushes: int,
        smt_active: bool,
    ) -> _IterationCost:
        """Cost of an iteration streamed entirely from the LSD."""
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
        return _IterationCost(
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
            lsd_flushes=flushes,
            lsd_captures=0,
            dsb_evictions=0,
            energy_nj=energy_nj,
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
        through the run memo (:meth:`memo_run`), so a run from an entry
        state already seen replays instead of being interpreted.
        """
        registry = get_registry()
        start = registry.clock()
        (report,) = self.memo_run(
            (program, thread, smt_active, exact),
            self._plan(program, thread, smt_active)[1],
            lambda: (self._interpret(program, thread, smt_active, exact),),
        )
        points, latency = self._sim_instruments(registry)
        points.inc()
        latency.observe(registry.clock() - start)
        return report

    def _interpret(
        self, program: LoopProgram, thread: int, smt_active: bool, exact: bool
    ) -> LoopReport:
        """The iteration driver: every iteration goes through
        :meth:`run_iteration` until the per-iteration cost repeats with
        period 1 or 2, then the remaining iterations are extrapolated
        analytically via :func:`extrapolate_tail`."""
        report = LoopReport()
        history: list[tuple] = []
        iteration = 0
        limit = program.iterations if exact else min(program.iterations, self.MAX_SIMULATED)
        steady = False
        prev_cost: _IterationCost | None = None
        cost: _IterationCost | None = None
        lsd = self.lsds[thread]
        # Pre-capture DSB iterations look steady but are not: a loop the
        # LSD could still lock onto must be simulated past the detection
        # latency before extrapolation may engage.
        min_warmup = self.MIN_WARMUP
        if lsd.structurally_qualifies(program):
            min_warmup = max(min_warmup, self.params.lsd_detect_iterations + 2)
        while iteration < limit:
            prev_cost, cost = cost, self.run_iteration(program, thread, smt_active)
            report.add_iteration(cost)
            history.append(cost.key())
            iteration += 1
            if not exact and iteration >= min_warmup and self._is_steady(history):
                steady = True
                break
        remaining = program.iterations - iteration
        if remaining > 0 and cost is not None:
            if not steady:
                # Hit MAX_SIMULATED without period-1/2 convergence: run
                # one more live iteration and repeat it for the tail.
                prev_cost, cost = None, self.run_iteration(program, thread, smt_active)
                report.add_iteration(cost)
                remaining -= 1
            if remaining > 0:
                period_two = steady and history[-1] != history[-2]
                report.merge(extrapolate_tail(prev_cost, cost, remaining, period_two))
                if lsd.is_streaming(program):
                    lsd.stats.streamed_iterations += remaining
        # Loop exit: the terminal backward branch mispredicts and any LSD
        # stream for this loop ends (no flush penalty is charged to the
        # *next* loop; the exit cost covers it).
        report.cycles += self.params.loop_exit_mispredict
        report.energy_nj += self.params.loop_exit_mispredict * self.energy.cycle_energy
        lsd.flush()
        self._last_path[thread] = None
        return report

    # ------------------------------------------------------------------
    # whole-run memo
    # ------------------------------------------------------------------
    def memo_run(
        self,
        head: tuple,
        sets: tuple[int, ...],
        run: Callable[[], tuple[LoopReport, ...]],
    ) -> tuple[LoopReport, ...]:
        """Call ``run`` (one whole loop-run driver), or replay its record.

        ``head`` names the run: ``(program, thread, smt_active, exact)``
        for one thread, ``(primary, secondary, exact)`` for an SMT pair.
        ``sets`` lists every DSB set the run can touch.  The run is
        keyed on ``head`` plus everything of the frontend it reads: the
        contents of those sets (keys, LRU order, uops and ways), every
        LSD, the per-thread pending penalties and flushes, last paths and
        MITE streaks, and under ``hashed`` replacement the insertion
        counter that picks victims.  Equal keys therefore mean equal
        runs, so a repeat re-applies the recorded effect — set contents,
        stat deltas, LSD and per-thread state, the L1I fetches in order —
        and returns fresh copies of the recorded reports.
        """
        dsb = self.dsb
        if len(dsb._listeners) != 1:
            return run()  # a foreign eviction listener must see every call
        dsb_sets = dsb._sets
        lsds = self.lsds.values()
        key = (
            head,
            tuple([tuple(dsb_sets[i].items()) for i in sets]),
            tuple([(lsd.enabled, _lsd_state(lsd)) for lsd in lsds]),
            tuple(self._pending_penalty.values()),
            tuple(self._pending_flushes.values()),
            tuple(self._last_path.values()),
            tuple(self._mite_streak.values()),
            dsb.stats.insertions if self.params.dsb_replacement == "hashed" else 0,
        )
        runs = self._runs
        effect = runs.get(key)
        if effect is not None:
            self._replay(sets, effect)
            return tuple([LoopReport(*values) for values in effect.reports])

        dsb_before = _dsb_stats(dsb)
        lsd_before = [_lsd_stats(lsd) for lsd in lsds]
        l1i = self.l1i
        log = None if l1i is None else _FetchLog(l1i)
        if log is not None:
            self.l1i = log
        try:
            reports = run()
        finally:
            self.l1i = l1i
        if len(runs) >= RUN_MEMO_LIMIT:
            del runs[next(iter(runs))]
        runs[key] = _RunEffect(
            reports=tuple(
                tuple([getattr(report, name) for name in _REPORT_FIELDS])
                for report in reports
            ),
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
        return reports

    def _replay(self, sets: tuple[int, ...], effect: _RunEffect) -> None:
        """Re-apply a recorded run's effect (see :meth:`memo_run`)."""
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
        cache[1].inc()

    @staticmethod
    def _is_steady(history: list[tuple]) -> bool:
        """Detect per-iteration cost repeating with period 1 or 2."""
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
