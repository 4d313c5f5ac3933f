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

For long loops the engine takes the frontend state after every simulated
iteration.  Since an iteration is a deterministic function of that state
and the body, a repeated state proves a cycle of any period: the engine
extrapolates the remaining iterations as whole and partial cycles and
leaves the state the last of them leaves (:meth:`FrontendEngine._tail`).
That lets the 20-million-iteration experiments of Section III run in
milliseconds with the reports and exit state of an exact run.  Two
hardware threads (:meth:`FrontendEngine.run_smt`) interleave in rounds,
and the same cycle rule and tail serve the rounds.

Loop runs are memoized per engine (:meth:`FrontendEngine._memo_run`): a
run that starts from frontend state already seen with the same
arguments replays its recorded reports and state changes instead of
being interpreted again.  A run whose state repeated is recorded by its
*simulated prefix* alone, under a head without the trip count, so the
same body at another count replays the prefix and only extrapolates its
own tail; that run then records itself whole, so its next repeat is a
replay alone.  A replay costs what the run changed: the DSB sets it
changed, its nonzero stat deltas, and its L1I fetches, in one step when
all of their lines are resident.

A body's window split and DSB plans depend only on the body and the
params, so one process-wide table keeps them for every engine
(:meth:`FrontendEngine._window_entry`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter, ge
from typing import Callable, Iterable, NamedTuple

from repro.caches.presets import l1i_cache
from repro.errors import ExecutionError
from repro.obs import get_registry
from repro.frontend.dsb import DecodedStreamBuffer, DsbLine, LineKey
from repro.frontend.lsd import LoopStreamDetector
from repro.frontend.mite import MiteDecoder
from repro.frontend.params import EnergyParams, FrontendParams
from repro.frontend.paths import DeliveryPath
from repro.isa.blocks import WINDOW_BYTES, MixBlock
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
#: Most loop bodies the process-wide body table keeps; the oldest is
#: dropped first.
BODY_TABLE_LIMIT = 128


def _put(table: dict, key: object, value: object, limit: int) -> None:
    """Store ``value`` in the bounded FIFO ``table``, first dropping its
    oldest entries until it holds fewer than ``limit``.  Another thread
    may change the table between the look and the drop; then it looks
    again.  Two threads that both make room and store can leave one
    entry too many each, until the next store drops it."""
    while len(table) >= limit:
        try:
            del table[next(iter(table))]
        except (KeyError, RuntimeError, StopIteration):
            pass
    table[key] = value


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

    Engines with equal params share one plan per (body, thread,
    smt_active), so plans compare (and hash) by identity: a plan names
    its body, thread and mode in a run-memo head without hashing the body.
    """

    __slots__ = ("steps", "sets")

    def __init__(self, steps: tuple[_PlanStep, ...], sets: tuple[int, ...]) -> None:
        self.steps = steps
        self.sets = sets


#: A loop body's window accesses and its plans per (thread, smt_active).
_BodyEntry = tuple[tuple[WindowAccess, ...], dict[tuple[int, bool], _Plan]]

#: Every engine's body entries, per ``(params, body)``: both depend on
#: nothing else, and each ``Machine`` builds its programs anew, so this
#: saves each new engine its splits and plans (see
#: :meth:`FrontendEngine._window_entry`).  At most ``BODY_TABLE_LIMIT``.
_BODIES: dict[tuple[FrontendParams, tuple[MixBlock, ...]], _BodyEntry] = {}


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
_SIMULATED = _REPORT_FIELDS.index("simulated_iterations")
#: The field values of an empty report.
_NO_REPORT = _report_values(LoopReport())


def _step_fields(reports: tuple[LoopReport, ...]) -> tuple[tuple, ...]:
    """What a tail repeats of one step, per thread: ``(index, value)``
    for each report field the step sets, but ``simulated_iterations``,
    since extrapolated steps are not simulated ones.  Fields left at 0
    add nothing, so they are left out."""
    return tuple([
        tuple([(i, value) for i, value in enumerate(_report_values(report))
               if value and i != _SIMULATED])
        for report in reports
    ])


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


#: What a loop run reads and leaves of the frontend
#: (:meth:`FrontendEngine._state`): the contents of the touched DSB sets
#: (LRU order), and per thread its LSD's ``enabled``, state, candidate,
#: qualify streak and loop windows, then its pending penalty, pending
#: flushes and last delivery path.
_State = tuple[tuple[tuple[tuple[LineKey, DsbLine], ...], ...], tuple[tuple, ...]]

#: One step of a state cycle (an iteration, or an SMT round): each
#: thread's :func:`_step_fields`, and the frontend state the step left
#: (``None`` where no tail reads it).
_Step = tuple[tuple[tuple, ...], "_State | None"]


class _Prefix(NamedTuple):
    """A loop driver's *simulated prefix*: the iterations (or SMT rounds)
    it ran through :meth:`FrontendEngine.run_iteration` until the
    frontend state repeated, and what its finish reads of them.  A
    finish only reads it, so a memoized prefix stays as recorded."""

    #: The least trip counts, one per thread, whose runs simulate this
    #: same prefix; ``None`` when the prefix depends on the counts.
    needs: tuple[int, ...] | None
    #: Field values of the running totals, one per thread.
    reports: tuple[tuple, ...]
    #: The steps since the latest visit of the state the prefix ended
    #: in, which repeat from there on; ``None`` when no state repeated.
    cycle: tuple[_Step, ...] | None


class _RunEffect(NamedTuple):
    """Everything one recorded loop run (or simulated prefix) did, as
    :meth:`FrontendEngine._replay` re-applies it."""

    #: Field values of each returned ``LoopReport``, or the ``_Prefix``.
    result: "tuple[tuple, ...] | _Prefix"
    #: The DSB sets the run changed, as ``(index, contents)`` pairs in
    #: LRU order; a replay starts from the recorded entry state, so the
    #: other sets already hold what the run left.
    sets: tuple[tuple[int, tuple[tuple[LineKey, DsbLine], ...]], ...]
    #: The per-thread half of the frontend state the run left (:data:`_State`).
    threads: tuple[tuple, ...]
    #: ``(stats, name, delta)`` for each stat counter the run changed.
    counts: tuple[tuple[object, str, int], ...]
    #: L1I fetch addresses, in issue order.
    fetches: tuple[int, ...]
    #: The distinct fetch addresses, in order of their last fetch.
    last_fetches: tuple[int, ...]


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

    #: Iterations simulated before a repeated state counts as a cycle.
    #: A repeat proves a cycle whenever it comes, so the warm-ups are not
    #: needed for exactness; they stay because they decide where prefixes
    #: end, and so the float summation order of extrapolated reports.
    MIN_WARMUP = 4
    #: Upper bound of explicitly simulated iterations per run_loop call.
    MAX_SIMULATED = 64
    #: Interleave rounds simulated before a repeated state counts.
    MIN_WARMUP_ROUNDS = 6
    #: Upper bound of explicitly simulated rounds per run_smt call.
    MAX_SIMULATED_ROUNDS = 128

    def __init__(
        self,
        params: FrontendParams | None = None,
        energy: EnergyParams | None = None,
        n_threads: int = 2,
        lsd_enabled: bool = True,
    ) -> None:
        if n_threads not in (1, 2):
            raise ExecutionError(f"cores have 1 or 2 hardware threads, got {n_threads}")
        self.params = params or FrontendParams()
        self.energy = energy or EnergyParams()
        self.n_threads = n_threads
        #: L1 instruction cache; only MITE fetches touch it (DSB/LSD hits
        #: bypass the L1I entirely, which is why the frontend channels are
        #: invisible to instruction-cache monitors, Section III-B).
        self.l1i = l1i_cache()
        self.dsb = DecodedStreamBuffer(self.params)
        self.mite = MiteDecoder(self.params)
        self.lsds = {
            thread: LoopStreamDetector(self.params, enabled=lsd_enabled)
            for thread in range(n_threads)
        }
        # Penalties charged to a thread's next iteration (LSD flush, ...).
        self._pending_penalty = {thread: 0.0 for thread in range(n_threads)}
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
        # (registry, sim.points, sim.latency, sim.replays) — rebuilt
        # whenever the process registry is swapped (use_registry in tests).
        self._instruments_cache: tuple | None = None
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
        """The body's entry: its window accesses and plans.  It comes from
        the process-wide table (:data:`_BODIES`), shared by every engine
        with equal params, and is kept in this engine's own table too, so
        the engine compares an equal body that is not the same object
        with the shared table's block by block at most once."""
        entry = self._window_cache.get(body)
        if entry is None:
            key = (self.params, body)
            entry = _BODIES.get(key)
            if entry is None:
                entry = (self._split_windows(body), {})
                _put(_BODIES, key, entry, BODY_TABLE_LIMIT)
            self._window_cache[body] = entry
        return entry

    def _split_windows(self, body: tuple[MixBlock, ...]) -> tuple[WindowAccess, ...]:
        accesses: list[WindowAccess] = []
        for block in body:
            groups: dict[int, list[Instruction]] = {}
            order: list[int] = []
            for addr, instruction in block.instruction_addresses():
                window = addr - (addr % WINDOW_BYTES)
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

        Everything here is static in (params, body, thread, mode), so it
        is built once per body and mode and kept with the body's window
        accesses, for every engine with equal params.  It is looked up by
        program first, in a table of this engine's, so programs that
        share a body (different trip counts) get the identical plan.
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
            # The first plan stored wins a race between threads, so each
            # body keeps one plan per mode.
            plan = plans.setdefault((thread, smt_active), _Plan(steps, tuple(sorted(touched))))
        self._program_plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    # eviction plumbing (DSB -> LSD inclusivity)
    # ------------------------------------------------------------------
    def _evicted(self, victims: list[LineKey]) -> int:
        """Flush every LSD streaming a window the DSB just evicted (the
        DSB is inclusive of the LSD); returns the number of victims."""
        if self.params.lsd_inclusive:  # else the ablation: LSDs keep streaming
            for thread, window_addr in victims:
                if self.lsds[thread].on_dsb_eviction(window_addr):
                    self._pending_penalty[thread] += self.params.lsd_flush_penalty
                    self._pending_flushes[thread] += 1
        return len(victims)

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
        for other, lsd in self.lsds.items():
            if other != thread and lsd.on_misaligned_set_touch(window_addr):
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
                        victims = insert_at(index, key, access.uops, ways)
                        if victims:
                            evictions += self._evicted(victims)
                if access.spans_from_misaligned:
                    self._notify_misaligned_touch(thread, access.window_addr, smt_active)
            elif access.pure_lcp:
                # LCP-only window: never cached, always legacy-decoded.
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
                    l1i.access(access.window_addr)
                    mite_cycles += access.plain_decode_cycles
                    uops_mite += access.plain_uops
                    windows_mite += 1
                    if path in (DeliveryPath.DSB, DeliveryPath.LSD):
                        to_mite += 1
                    victims = insert_at(index, key, access.plain_uops, ways)
                    if victims:
                        evictions += self._evicted(victims)
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
    def _instruments(self, registry) -> tuple:
        """``(registry, sim.points, sim.latency, sim.replays,
        sim.iterations{mode=simulated}, sim.iterations{mode=extrapolated},
        sim.l1i_replays{path=resident}, sim.l1i_replays{path=fetched})``,
        cached per registry."""
        cache = self._instruments_cache
        if cache is None or cache[0] is not registry:
            cache = self._instruments_cache = (
                registry,
                registry.counter("sim.points"),
                registry.histogram("sim.latency", edges=SIM_LATENCY_EDGES),
                registry.counter("sim.replays"),
                registry.counter("sim.iterations", mode="simulated"),
                registry.counter("sim.iterations", mode="extrapolated"),
                registry.counter("sim.l1i_replays", path="resident"),
                registry.counter("sim.l1i_replays", path="fetched"),
            )
        return cache

    def run_loop(
        self,
        program: LoopProgram,
        thread: int = 0,
        smt_active: bool = False,
        exact: bool = False,
    ) -> LoopReport:
        """Execute all iterations of ``program`` on ``thread``.

        ``exact=True`` disables extrapolation and simulates every
        iteration (used by tests and short loops).  The run goes
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
            lambda: self._interpret(program, thread, smt_active, exact, plan.sets),
            finish=lambda prefix: (
                self._finish(program, thread, smt_active, plan.sets, prefix),
            ),
            prefix=None if exact else (plan, (program.iterations,)),
        )
        _, points, latency, *_ = self._instruments(registry)
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
            _, points, latency, *_ = self._instruments(registry)
            points.inc(len(programs))
            latency.observe(registry.clock() - start)
        return reports

    def _interpret(
        self, program: LoopProgram, thread: int, smt_active: bool, exact: bool, sets: tuple
    ) -> _Prefix:
        """The iteration driver's *simulated prefix*: iterations through
        :meth:`run_iteration` until the state of ``sets`` repeats
        (:meth:`_drive`) or the simulation limit.  Only the limit reads
        the trip count, so a prefix that found its cycle after ``k``
        iterations is the prefix of every count ``>= k``."""
        limit = program.iterations if exact else min(program.iterations, self.MAX_SIMULATED)
        (values,), cycle, _ = self._drive(
            lambda: (self.run_iteration(program, thread, smt_active),),
            (_NO_REPORT,),
            sets,
            limit,
            None if exact else self.MIN_WARMUP,
        )
        return _Prefix(None if cycle is None else (values[_ITERATIONS],), (values,), cycle)

    def _finish(
        self, program: LoopProgram, thread: int, smt_active: bool, sets: tuple, prefix: _Prefix
    ) -> LoopReport:
        """The rest of a run after its simulated prefix, which is all that
        depends on the trip count: the remaining iterations continue the
        prefix's cycle (:meth:`_tail`), then the loop exits."""
        reports, cycle = prefix.reports, prefix.cycle
        lsd = self.lsds[thread]
        remaining = program.iterations - reports[0][_ITERATIONS]
        if remaining > 0 and cycle is None:
            # Hit MAX_SIMULATED with no state repeated: run one more live
            # iteration and repeat it for the tail.
            reports, _, last = self._drive(
                lambda: (self.run_iteration(program, thread, smt_active),), reports
            )
            cycle, remaining = ((_step_fields(last), None),), remaining - 1
        if remaining > 0:
            if lsd.is_streaming(program):
                lsd.stats.streamed_iterations += remaining
            reports = self._tail(sets, reports, cycle, remaining)
        report = LoopReport(*reports[0])
        # Loop exit: the terminal backward branch mispredicts and any LSD
        # stream for this loop ends (no flush penalty is charged to the
        # *next* loop; the exit cost covers it).
        report.cycles += self.params.loop_exit_mispredict
        report.energy_nj += self.params.loop_exit_mispredict * self.energy.cycle_energy
        lsd.flush()
        self._last_path[thread] = None
        return report

    def _drive(
        self,
        step: Callable[[], tuple[LoopReport, ...]],
        reports: tuple[tuple, ...],
        sets: tuple[int, ...] = (),
        limit: int = 1,
        warmup: int | None = None,
    ) -> tuple[tuple[tuple, ...], tuple[_Step, ...] | None, tuple[LoopReport, ...]]:
        """Simulate up to ``limit`` steps of a loop driver (iterations or
        SMT rounds) after ``reports``, each thread's field values so far:
        ``step`` runs one through :meth:`run_iteration` and returns each
        thread's report.

        With a ``warmup``, the frontend state of ``sets`` (:meth:`_state`)
        is taken after every step.  A step is a deterministic function of
        that state, so once a state repeats, the steps since its latest
        visit repeat for as long as the loop runs: a cycle of any period.
        A repeat counts from the ``warmup``-th step on.  Returns the new
        totals, the cycle (``None`` when ``limit`` came first) and the
        last step's reports.
        """
        totals = [LoopReport(*values) for values in reports]
        seen: dict[_State, int] = {}
        trail: list[tuple[tuple[LoopReport, ...], _State]] = []
        cycle = None
        steps = 0
        while steps < limit:
            last = step()
            for total, report in zip(totals, last):
                total.merge(report)
            steps += 1
            if warmup is None:
                continue
            state = self._state(sets)
            trail.append((last, state))
            latest = seen.setdefault(state, steps)
            if latest != steps:
                if steps >= warmup:
                    cycle = tuple([(_step_fields(run), after) for run, after in trail[latest:]])
                    break
                seen[state] = steps
        totals = tuple([_report_values(total) for total in totals])
        self._instruments(get_registry())[4].inc(
            sum([values[_ITERATIONS] for values in totals])
            - sum([values[_ITERATIONS] for values in reports])
        )
        return totals, cycle, last

    def _tail(
        self, sets: tuple, reports: tuple[tuple, ...], cycle: tuple[_Step, ...], remaining: int
    ) -> tuple[tuple, ...]:
        """``reports`` (each thread's field values) plus ``remaining``
        extrapolated steps that continue ``cycle``: ``remaining // p``
        whole cycles of period ``p``, then its first ``remaining % p``
        steps.  Each step of the cycle adds its values times its count,
        so integer counters scale exactly; period 1 adds ``value *
        remaining``.  The loop ends where the last of those steps left
        it, so a partial cycle writes back the state recorded after its
        last step."""
        whole, part = divmod(remaining, len(cycle))
        extended = [list(values) for values in reports]
        # Steps of count 0 add nothing.
        for index, (step, _) in enumerate(cycle if whole else cycle[:part]):
            count = whole + 1 if index < part else whole
            for values, step_fields in zip(extended, step):
                for i, value in step_fields:
                    values[i] += value * count
        if part:
            contents, threads = cycle[part - 1][1]
            self._restore(zip(sets, contents), threads)
        self._instruments(get_registry())[5].inc(
            sum([values[_ITERATIONS] for values in extended])
            - sum([values[_ITERATIONS] for values in reports])
        )
        return tuple(map(tuple, extended))

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
        SMT mode (folded DSB index, shared decode bandwidth) while both
        have iterations left.  The *full* rounds, with bursts of
        ``ratio``, come first; then the one short burst, if the primary
        runs out first; then :meth:`run_loop` drains the secondary's
        leftover iterations in SMT mode, or the primary's
        single-threaded, where its DSB index mapping reverts: the
        repartitioning the paper's Figure 2 exposes.

        Like :meth:`run_loop`, the run is a simulated prefix of full
        rounds (:meth:`_interleave`) and a finish (:meth:`_smt_finish`)
        through the run memo.  The prefix head names both bodies and the
        ratio but not the counts, so the MT channels' slipped bits, which
        run the same two loops at new counts, replay it and finish live.
        """
        # Both threads' SMT plans, plus the primary's single-thread plan
        # for the drain.
        plans = (self._plan(primary, 0, True), self._plan(secondary, 1, True))
        round_sets = tuple(sorted({*plans[0].sets, *plans[1].sets}))
        sets = tuple(sorted({*round_sets, *self._plan(primary, 0, False).sets}))
        ratio = max(1, round(primary.iterations / secondary.iterations))
        full = min(secondary.iterations, primary.iterations // ratio)
        # The SMT plans name both bodies.
        reports = self._memo_run(
            (primary, secondary, exact),
            sets,
            lambda: self._interleave(primary, secondary, ratio, full, exact, round_sets),
            finish=lambda prefix: self._smt_finish(
                primary, secondary, ratio, full, exact, round_sets, prefix
            ),
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
        self,
        primary: LoopProgram,
        secondary: LoopProgram,
        ratio: int,
        full: int,
        exact: bool,
        sets: tuple,
    ) -> _Prefix:
        """The SMT driver's simulated prefix: up to ``full`` full-burst
        rounds, until the state of ``sets`` repeats (:meth:`_drive`) or
        the simulation limit.  A prefix that found its cycle after ``r``
        rounds is the prefix of every run with the same bodies and ratio
        and at least ``r * ratio`` primary and ``r`` secondary iterations."""
        limit = full if exact else min(full, self.MAX_SIMULATED_ROUNDS)
        reports, cycle, _ = self._drive(
            lambda: self._round(primary, secondary, ratio),
            (_NO_REPORT, _NO_REPORT),
            sets,
            limit,
            None if exact else self.MIN_WARMUP_ROUNDS,
        )
        rounds = reports[1][_ITERATIONS]
        return _Prefix(None if cycle is None else (rounds * ratio, rounds), reports, cycle)

    def _smt_finish(
        self,
        primary: LoopProgram,
        secondary: LoopProgram,
        ratio: int,
        full: int,
        exact: bool,
        sets: tuple,
        prefix: _Prefix,
    ) -> tuple[LoopReport, LoopReport]:
        """The rest of an SMT run after its simulated prefix: the rest of
        the ``full`` rounds continue the prefix's cycle (:meth:`_tail`),
        the short burst runs live, :meth:`run_loop` drains what is left,
        and both loops exit.  ``prefix`` is only read."""
        reports, cycle = prefix.reports, prefix.cycle
        remaining = full - reports[1][_ITERATIONS]
        if remaining > 0 and cycle is None:
            # Hit MAX_SIMULATED_ROUNDS with no state repeated: run one more
            # live round and repeat it for the rest.
            reports, _, last = self._drive(
                lambda: self._round(primary, secondary, ratio), reports
            )
            cycle, remaining = ((_step_fields(last), None),), remaining - 1
        if remaining > 0:
            reports = self._tail(sets, reports, cycle, remaining)
        primary_left = primary.iterations - full * ratio
        secondary_left = secondary.iterations - full
        if primary_left and secondary_left:
            reports, _, _ = self._drive(
                lambda: self._round(primary, secondary, primary_left), reports
            )
            primary_left, secondary_left = 0, secondary_left - 1
        done = [LoopReport(*values) for values in reports]
        # The drain: run_loop charges its own loop exit.
        drained = None
        if secondary_left:
            drain = secondary.with_iterations(secondary_left)
            done[1].merge(self.run_loop(drain, thread=1, smt_active=True, exact=exact))
            drained = 1
        elif primary_left:
            drain = primary.with_iterations(primary_left)
            done[0].merge(self.run_loop(drain, thread=0, smt_active=False, exact=exact))
            drained = 0
        exit_cost = self.params.loop_exit_mispredict
        for thread, report in enumerate(done):
            if thread != drained:
                report.cycles += exit_cost
                report.energy_nj += exit_cost * self.energy.cycle_energy
                self.lsds[thread].flush()
        return done[0], done[1]

    # ------------------------------------------------------------------
    # whole-run memo
    # ------------------------------------------------------------------
    def _state(self, sets: tuple[int, ...]) -> _State:
        """Everything a loop run touching DSB ``sets`` reads of the
        frontend (see :data:`_State`): the run memo's key at entry, its
        record at exit, and what a replay writes back."""
        dsb_sets = self.dsb._sets
        threads = [
            (lsd.enabled, lsd.state, lsd._candidate, lsd._qualify_streak, lsd._loop_windows,
             self._pending_penalty[thread], self._pending_flushes[thread], self._last_path[thread])
            for thread, lsd in self.lsds.items()
        ]
        return tuple([tuple(dsb_sets[i].items()) for i in sets]), tuple(threads)

    def _stats(self) -> list:
        """The stat records loop runs advance: the DSB's, then each LSD's."""
        return [self.dsb.stats, *[lsd.stats for lsd in self.lsds.values()]]

    def _counts(self) -> tuple[int, ...]:
        """Every counter of :meth:`_stats`, flat, in order."""
        return tuple([count for stats in self._stats() for count in vars(stats).values()])

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
        keyed on ``head`` plus :meth:`_state` of those sets, which is
        everything of the frontend it reads.  Equal keys therefore mean
        equal runs, so a repeat replays the run's effect
        (:meth:`_replay`) and returns fresh copies of the recorded
        reports.

        A loop driver passes ``finish``: ``run`` then only simulates the
        prefix and returns a :class:`_Prefix`, and ``finish`` turns it
        into the reports.  With ``prefix`` — a head without trip counts
        (``plan`` for one thread, ``(primary plan, secondary plan,
        ratio)`` for an SMT pair) and the run's counts, one per thread —
        an interpreted run whose prefix has ``needs`` records only the
        prefix, under that head.  A run from the same state that has no
        whole record of its own, and whose counts are at least those
        ``needs``, replays the prefix, finishes live and records itself
        whole, so its next repeat skips the finish too.  Other runs
        record whole.
        """
        state = self._state(sets)
        memo = self._runs
        key = (head, state)
        effect = memo.get(key)
        if effect is not None:
            self._replay(effect, runs)
            return tuple([LoopReport(*values) for values in effect.result])
        recorded = None
        if prefix is not None:
            prefix_key = (prefix[0], state)
            recorded = memo.get(prefix_key)
            if recorded is not None and not all(map(ge, prefix[1], recorded.result.needs)):
                recorded = None

        counts = self._counts()
        log = self.l1i = _FetchLog(self.l1i)
        try:
            if recorded is not None:
                self._replay(recorded, runs)
                result = recorded.result
            else:
                result = run()
            whole = recorded is not None or prefix is None or result.needs is None
            if whole and finish is not None:
                result = finish(result)
        finally:
            self.l1i = log.cache
        after = self._state(sets)
        before = iter(counts)
        _put(memo, key if whole else prefix_key, _RunEffect(
            tuple([_report_values(report) for report in result]) if whole else result,
            tuple([(index, contents)
                   for index, old, contents in zip(sets, state[0], after[0]) if contents != old]),
            after[1],
            tuple([(stats, name, delta) for stats in self._stats()
                   for name, count in vars(stats).items() if (delta := count - next(before))]),
            tuple(log.addrs),
            tuple(dict.fromkeys(reversed(log.addrs)))[::-1],
        ), RUN_MEMO_LIMIT)
        return result if whole else finish(result)

    def _replay(self, effect: _RunEffect, runs: int) -> None:
        """Re-apply a recorded run's effect from the entry state it was
        recorded in: write back the DSB sets it changed and the thread
        state it left, add its nonzero stat deltas, and replay its L1I
        fetches.  When every fetched line is resident they all hit, so
        the L1I takes them in one step (``hit_resident``); otherwise they
        are re-issued one by one.  Either way every enclosing
        :class:`_FetchLog` sees each address.  The replay counts as
        ``runs`` loop runs in ``sim.replays``, and as one
        ``sim.l1i_replays`` on the path its fetches took."""
        self._restore(effect.sets, effect.threads)
        for stats, name, delta in effect.counts:
            setattr(stats, name, getattr(stats, name) + delta)
        instruments = self._instruments(get_registry())
        fetches = effect.fetches
        if fetches:
            l1i = self.l1i
            while isinstance(l1i, _FetchLog):
                l1i.addrs.extend(fetches)
                l1i = l1i.cache
            if l1i.hit_resident(effect.last_fetches, len(fetches)):
                instruments[6].inc()
            else:
                for addr in fetches:
                    l1i.access(addr)
                instruments[7].inc()
        instruments[3].inc(runs)

    def _restore(self, sets: Iterable[tuple[int, tuple]], threads: tuple[tuple, ...]) -> None:
        """Write back DSB set contents, as ``(index, contents)`` pairs,
        and the per-thread state :meth:`_state` took."""
        dsb = self.dsb
        for index, items in sets:
            entry_set = dsb._sets[index]
            entry_set.clear()
            entry_set.update(items)
            dsb._ways[index] = sum([line.ways for _, line in items])
        for (thread, lsd), values in zip(self.lsds.items(), threads):
            (lsd.enabled, lsd.state, lsd._candidate, lsd._qualify_streak, lsd._loop_windows,
             self._pending_penalty[thread], self._pending_flushes[thread],
             self._last_path[thread]) = values

    def reset_thread(self, thread: int) -> None:
        """Forget a thread's frontend state (context switch / teardown)."""
        self.lsds[thread].flush()
        self.dsb.flush_thread(thread)
        self._last_path[thread] = None
        self._pending_penalty[thread] = 0.0
        self._pending_flushes[thread] = 0
