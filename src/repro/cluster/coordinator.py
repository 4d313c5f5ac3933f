"""The cluster coordinator: shard dispatch, fault tolerance, merge.

One :class:`Coordinator` owns one distributed run: it partitions the
pending points into locality-pure shards (:mod:`repro.cluster.shards`),
serves a JSONL socket (TCP or Unix) that workers register on, and
drives the run to completion through four cooperating mechanisms:

* **locality-aware assignment** — an idle worker preferentially gets
  the next shard whose locality matches the one it just finished, so
  per-host caches stay warm;
* **heartbeat eviction** — a worker silent for ``heartbeat_timeout``
  seconds is dropped and its in-flight shard goes back to the queue;
* **bounded retry with exponential backoff** — a shard lost to a dead
  worker (or failed by one) is re-dispatched after
  ``retry_backoff_s * 2**(attempt-1)`` seconds, at most ``max_retries``
  times beyond the first attempt before the run fails;
* **straggler stealing** — when the queue is empty but a shard has been
  running longer than ``steal_after_s`` on a single worker, an idle
  worker gets a *duplicate* dispatch; whichever copy reports a point
  first wins.

Correctness under all of that rests on the **idempotent merge**: every
result is recorded by point index exactly once — late duplicates from
evicted workers, retried shards or stolen copies are counted
(:attr:`Coordinator.duplicate_results`) and dropped.  Merged metrics
travel as JSON, which round-trips finite floats bit-exactly, so the
assembled table is byte-identical to a serial run of the same grid.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    WORKER_FRAMES,
    ClusterError,
    ClusterFrame,
    ClusterProtocolError,
    Goodbye,
    Heartbeat,
    PointResult,
    Register,
    ShardDone,
    ShardError,
    ShardWork,
    Shutdown,
    Welcome,
    encode_obj,
    encode_points,
    read_frame,
)
from repro.cluster.shards import Shard, plan_shards
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, Span, get_registry, merge_snapshot
from repro.service.endpoints import Endpoint, parse_endpoint, start_endpoint_server
from repro.service.events import Event
from repro.sweep import SweepPoint
from repro.wire import frame_table, send_frame

__all__ = ["Coordinator", "ShardState", "WorkerHandle"]

#: The only frame a new connection may open with.
_HELLO = frame_table(Register)


@dataclass
class ShardState:
    """One shard's dispatch lifecycle inside a run."""

    shard: Shard
    #: Dispatch attempts so far (first dispatch counts as 1).
    attempts: int = 0
    #: Workers currently holding a copy (2 while a steal is in flight).
    active: set[str] = field(default_factory=set)
    #: Point indices not yet merged.
    remaining: set[int] = field(default_factory=set)
    dispatched_at: float = 0.0
    #: Backoff gate: not assignable before this (coordinator clock).
    next_eligible_at: float = 0.0

    def __post_init__(self) -> None:
        self.remaining = set(self.shard.indices)

    @property
    def done(self) -> bool:
        return not self.remaining


@dataclass
class WorkerHandle:
    """One registered worker connection."""

    name: str
    writer: asyncio.StreamWriter
    last_seen: float
    #: Shard ids this worker currently holds (one, or two mid-steal).
    shards: set[int] = field(default_factory=set)
    #: Locality of the last shard dispatched to this worker.
    locality: str | None = None
    #: Local pool width the worker registered with (its ``jobs=``).
    slots: int = 1
    points_done: int = 0

    @property
    def idle(self) -> bool:
        return not self.shards


class Coordinator:
    """Drives one distributed sweep run over registered workers.

    Parameters
    ----------
    pending:
        ``(index, point)`` pairs to compute (cache misses only — the
        executor layer has already served cache hits).
    factory:
        The sweep factory; must be picklable (module-level function or
        ``functools.partial``), exactly as for the parallel executor.
    shard_size:
        Max points per shard (locality groups may close shards early).
    heartbeat_timeout:
        Seconds of silence before a worker is evicted.
    max_retries:
        Re-dispatches allowed per shard beyond its first attempt.
    retry_backoff_s:
        Base of the exponential re-dispatch delay.
    steal_after_s:
        Age at which a lone in-flight shard becomes stealable by an
        idle worker; ``None`` disables stealing.
    no_worker_grace_s:
        With work unresolved and *zero* connected workers, fail the run
        after this many seconds (workers may reconnect within it).
    on_event:
        Optional callback receiving :class:`~repro.service.events.Event`
        objects narrating the run (worker joins/losses, dispatches,
        re-dispatches, steals) in the service's JSONL vocabulary.
    clock:
        Monotonic time source; defaults to the registry's clock (tests
        inject a fake, usually via :class:`~repro.obs.ManualClock`).
    registry:
        Metrics registry the run's counters and spans land on; defaults
        to the process registry.  The public tallies
        (:attr:`duplicate_results`, :attr:`redispatches`,
        :attr:`steals`, :attr:`remote_cache_hits`) are *views* over
        these instruments — deltas since construction — so sequential
        runs in one process never double-count.
    """

    def __init__(
        self,
        pending: Sequence[tuple[int, SweepPoint]],
        factory: Callable[[SweepPoint], Mapping[str, float]],
        *,
        shard_size: int = 4,
        heartbeat_timeout: float = 10.0,
        max_retries: int = 3,
        retry_backoff_s: float = 0.5,
        steal_after_s: float | None = 30.0,
        no_worker_grace_s: float = 30.0,
        on_event: Callable[[Event], None] | None = None,
        clock: Callable[[], float] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if heartbeat_timeout <= 0:
            raise ConfigurationError(
                f"heartbeat_timeout must be > 0, got {heartbeat_timeout}"
            )
        if max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
        self._factory_b64 = encode_obj(factory)
        self.shard_size = int(shard_size)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.steal_after_s = steal_after_s
        self.no_worker_grace_s = float(no_worker_grace_s)
        self._on_event = on_event
        self.registry = registry if registry is not None else get_registry()
        self._clock = clock if clock is not None else self.registry.clock
        self._seq = itertools.count()

        self._shards = [ShardState(shard=s) for s in plan_shards(pending, self.shard_size)]
        self._states_by_id = {state.shard.id: state for state in self._shards}
        self.total_points = sum(len(s.shard) for s in self._shards)
        #: index -> (metrics, elapsed_s); the idempotent merge target.
        self._results: dict[int, tuple[dict, float]] = {}
        self._queue: list[ShardState] = list(self._shards)
        self._workers: dict[str, WorkerHandle] = {}
        self._names = itertools.count(1)
        self._server: asyncio.AbstractServer | None = None
        self._monitor: asyncio.Task | None = None
        self._handlers: set[asyncio.Task] = set()
        #: In-flight shard dispatch sends (see _dispatch / stop).
        self._send_tasks: set[asyncio.Task] = set()
        self._first_worker = asyncio.Event()
        self._finished = asyncio.Event()
        self._failure: BaseException | None = None
        self._stopped = False
        self._ever_had_workers = False
        self._workerless_since: float | None = None
        self.address: Endpoint | None = None

        # Run counters (surfaced in events and by the executor's log)
        # live on the registry; the public tallies are deltas since
        # construction (see the ``registry`` parameter above).
        self._c_duplicates = self.registry.counter("cluster.duplicate_results")
        self._c_redispatches = self.registry.counter("cluster.redispatches")
        self._c_steals = self.registry.counter("cluster.steals")
        self._c_remote_hits = self.registry.counter("cluster.remote_cache_hits")
        self._base_duplicates = self._c_duplicates.value
        self._base_redispatches = self._c_redispatches.value
        self._base_steals = self._c_steals.value
        self._base_remote_hits = self._c_remote_hits.value
        #: Open dispatch→completion spans, keyed (shard id, worker name).
        self._dispatch_spans: dict[tuple[int, str], Span] = {}
        #: Per-worker merge baselines for shipped registry snapshots
        #: (workers re-ship cumulative state; the baseline keeps the
        #: fleet merge delta-based).  Keyed by worker name.
        self._metric_baselines: dict[str, dict] = {}

        if self.total_points == 0:
            self._finished.set()

    # ------------------------------------------------------------------
    # run counters (views over the registry)
    # ------------------------------------------------------------------
    @property
    def duplicate_results(self) -> int:
        """Late duplicate point results dropped by the merge."""
        return self._c_duplicates.value - self._base_duplicates

    @property
    def redispatches(self) -> int:
        """Shards re-queued after a failure, loss, or anomaly."""
        return self._c_redispatches.value - self._base_redispatches

    @property
    def steals(self) -> int:
        """Straggler shards duplicated onto an idle worker."""
        return self._c_steals.value - self._base_steals

    @property
    def remote_cache_hits(self) -> int:
        """Points a worker answered from its local result cache."""
        return self._c_remote_hits.value - self._base_remote_hits

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, endpoint: Endpoint | str) -> Endpoint:
        """Bind the coordinator socket; returns the actual address."""
        if isinstance(endpoint, str):
            endpoint = parse_endpoint(endpoint)
        self._server, self.address = await start_endpoint_server(
            self._handle_connection, endpoint
        )
        self._monitor = asyncio.get_running_loop().create_task(
            self._monitor_loop(), name="cluster-monitor"
        )
        return self.address

    async def stop(self, reason: str = "coordinator stopped") -> None:
        """Tear the run down: notify workers, close everything.

        Safe to call at any point, including with shards in flight — the
        run is marked failed (unless already complete), workers receive
        a ``shutdown`` frame, and every task/connection is reaped.
        """
        if self._stopped:
            return
        self._stopped = True
        if not self._finished.is_set():
            self._failure = ClusterError(
                f"{reason} with {self.total_points - len(self._results)} "
                "point(s) unresolved"
            )
            self._finished.set()
        # Swap pattern throughout: take ownership of the shared handle
        # *before* the first await, so a concurrent stop() (or a handler
        # observing the teardown) never sees a half-cancelled task.
        monitor, self._monitor = self._monitor, None
        if monitor is not None:
            monitor.cancel()
            try:
                await monitor
            except asyncio.CancelledError:
                pass
        sends, self._send_tasks = self._send_tasks, set()
        for task in sends:
            task.cancel()
        for task in sends:
            try:
                await task
            except asyncio.CancelledError:
                pass
        for worker in list(self._workers.values()):
            await self._send_safe(worker, Shutdown(reason=reason))
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        # Leave the connections open: a worker honouring ``shutdown``
        # still owes us its final frames (``shard-done``/``goodbye``
        # snapshots for the fleet metrics merge) and closes its end when
        # done, so handlers drain to EOF on their own.  Cancellation is
        # a last resort for unresponsive peers (it also trips a noisy
        # wart in asyncio.streams' connection_made callback on 3.11).
        if self._handlers:
            _, stragglers = await asyncio.wait(set(self._handlers), timeout=2.0)
            for task in stragglers:
                task.cancel()
            for task in stragglers:
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        for worker in list(self._workers.values()):
            worker.writer.close()
        self._handlers.clear()
        self._workers.clear()

    async def wait_for_workers(self, timeout: float) -> bool:
        """Block until at least one worker registers (or ``timeout``)."""
        if self._workers:
            return True
        try:
            await asyncio.wait_for(self._first_worker.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def results(self) -> list[tuple[int, dict, float]]:
        """Await completion; the merged ``(index, metrics, elapsed)`` list."""
        await self._finished.wait()
        if self._failure is not None:
            raise self._failure
        return [
            (index, metrics, elapsed)
            for index, (metrics, elapsed) in sorted(self._results.items())
        ]

    @property
    def workers(self) -> tuple[str, ...]:
        return tuple(sorted(self._workers))

    @property
    def finished(self) -> bool:
        return self._finished.is_set()

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def merged_points(self) -> int:
        return len(self._results)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        worker: WorkerHandle | None = None
        try:
            register = await read_frame(reader, _HELLO)
            if register is None:
                return
            if register.version != PROTOCOL_VERSION:
                await send_frame(
                    writer,
                    Shutdown(
                        reason=f"protocol version mismatch "
                        f"(coordinator speaks {PROTOCOL_VERSION})"
                    ),
                )
                return
            worker = self._register(register, writer)
            await send_frame(
                writer, Welcome(worker=worker.name, version=PROTOCOL_VERSION)
            )
            self._assign(worker)
            while (frame := await read_frame(reader, WORKER_FRAMES)) is not None:
                worker.last_seen = self._clock()
                self._HANDLERS[type(frame)](self, worker, frame)
        except (ConnectionResetError, BrokenPipeError, ClusterProtocolError):
            pass
        except asyncio.CancelledError:
            raise
        finally:
            if worker is not None and worker.name in self._workers:
                self._drop_worker(worker, reason="disconnected")
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    def _register(self, frame: Register, writer: asyncio.StreamWriter) -> WorkerHandle:
        requested = frame.worker or f"worker-{next(self._names)}"
        name = requested
        suffix = 1
        while name in self._workers:
            suffix += 1
            name = f"{requested}-{suffix}"
        worker = WorkerHandle(
            name=name,
            writer=writer,
            last_seen=self._clock(),
            slots=max(1, frame.slots),
        )
        self._workers[name] = worker
        self._ever_had_workers = True
        self._workerless_since = None
        self._first_worker.set()
        self.registry.counter("cluster.workers_joined").inc()
        self._emit(
            "worker-joined",
            worker=name,
            workers=len(self._workers),
            slots=worker.slots,
        )
        return worker

    # ------------------------------------------------------------------
    # result merging (idempotent by point index)
    # ------------------------------------------------------------------
    def _on_heartbeat(self, worker: WorkerHandle, frame: Heartbeat) -> None:
        """Liveness only: every frame already refreshed ``last_seen``."""

    def _on_point_result(self, worker: WorkerHandle, frame: PointResult) -> None:
        state = self._states_by_id.get(frame.shard)
        index = frame.index
        if state is None:
            raise ClusterProtocolError(f"point-result for unknown shard: {frame}")
        if index in self._results or index not in set(state.shard.indices):
            # Late duplicate from an evicted worker, a retried shard or
            # a stolen copy: merged already, drop it.
            self._c_duplicates.inc()
            return
        self._results[index] = (dict(frame.metrics), frame.elapsed_s)
        state.remaining.discard(index)
        worker.points_done += 1
        self.registry.counter("cluster.points_done", worker=worker.name).inc()
        if frame.cached:
            self._c_remote_hits.inc()
        if len(self._results) >= self.total_points:
            self._emit(
                "cluster-done",
                points=self.total_points,
                duplicates=self.duplicate_results,
                redispatches=self.redispatches,
                steals=self.steals,
            )
            self._finished.set()

    def _on_shard_done(self, worker: WorkerHandle, frame: ShardDone) -> None:
        self._merge_worker_metrics(worker, frame.snapshot)
        state = self._states_by_id.get(frame.shard)
        if state is None:
            raise ClusterProtocolError(f"shard-done for unknown shard: {frame}")
        self._end_span(state.shard.id, worker.name)
        worker.shards.discard(state.shard.id)
        state.active.discard(worker.name)
        if not state.done and not state.active:
            # The worker claims completion but points are missing — a
            # protocol anomaly; treat it like a failed attempt.
            self._requeue(state, reason=f"incomplete shard-done from {worker.name}")
        self._assign(worker)

    def _on_shard_error(self, worker: WorkerHandle, frame: ShardError) -> None:
        state = self._states_by_id.get(frame.shard)
        if state is None:
            raise ClusterProtocolError(f"shard-error for unknown shard: {frame}")
        self._end_span(state.shard.id, worker.name)
        worker.shards.discard(state.shard.id)
        state.active.discard(worker.name)
        if not state.done and not state.active:
            self._requeue(
                state,
                reason=f"worker {worker.name} failed: {frame.message}",
            )
        self._assign(worker)

    def _on_goodbye(self, worker: WorkerHandle, frame: Goodbye) -> None:
        """A worker honouring ``shutdown``: take its parting snapshot."""
        self._merge_worker_metrics(worker, frame.snapshot)

    def _merge_worker_metrics(
        self, worker: WorkerHandle, snapshot: Mapping[str, object] | None
    ) -> None:
        """Fold one shipped registry snapshot into the fleet registry.

        Delta-based against the worker's previous shipment, so the
        cumulative snapshots in successive ``shard-done`` frames (and
        the final ``goodbye``) never double-count; a worker that
        reconnects under a new name simply starts a fresh baseline.
        """
        if snapshot is None:
            return
        self._metric_baselines[worker.name] = merge_snapshot(
            self.registry, snapshot, self._metric_baselines.get(worker.name)
        )
        self.registry.counter("cluster.snapshots_merged").inc()

    # ------------------------------------------------------------------
    # dispatch / retry / steal
    # ------------------------------------------------------------------
    def _assign(self, worker: WorkerHandle) -> None:
        """Hand the idle ``worker`` its next shard, if any is eligible."""
        if self._finished.is_set() or not worker.idle:
            return
        now = self._clock()
        eligible = [s for s in self._queue if now >= s.next_eligible_at]
        if eligible:
            preferred = [s for s in eligible if s.shard.locality == worker.locality]
            state = min(preferred or eligible, key=lambda s: s.shard.id)
            self._queue.remove(state)
            self._dispatch(worker, state)
            return
        if self._queue or self.steal_after_s is None:
            return  # everything is backing off, or stealing disabled
        stealable = [
            s
            for s in self._shards
            if not s.done
            and len(s.active) == 1
            and worker.name not in s.active
            and now - s.dispatched_at >= self.steal_after_s
        ]
        if stealable:
            state = min(stealable, key=lambda s: s.dispatched_at)
            self._c_steals.inc()
            self._emit(
                "shard-stolen",
                shard=state.shard.id,
                worker=worker.name,
                straggler=next(iter(state.active)),
            )
            self._dispatch(worker, state, stolen=True)

    def _dispatch(
        self, worker: WorkerHandle, state: ShardState, stolen: bool = False
    ) -> None:
        state.attempts += 1 if not stolen else 0
        state.active.add(worker.name)
        state.dispatched_at = self._clock()
        worker.shards.add(state.shard.id)
        worker.locality = state.shard.locality
        self._dispatch_spans[(state.shard.id, worker.name)] = (
            self.registry.begin_span(
                "shard.dispatch", shard=state.shard.id, worker=worker.name
            )
        )
        frame = ShardWork(
            shard=state.shard.id,
            factory=self._factory_b64,
            points=encode_points(
                [(i, p) for i, p in state.shard.pending if i in state.remaining]
            ),
        )
        self._emit(
            "shard-dispatched",
            shard=state.shard.id,
            worker=worker.name,
            points=len(state.remaining),
            attempt=state.attempts,
            stolen=stolen,
        )
        # asyncio holds only a weak reference to running tasks: retain
        # the send until it completes, and cancel stragglers in stop().
        loop = asyncio.get_running_loop()
        task = loop.create_task(self._send_or_drop(worker, frame))
        self._send_tasks.add(task)
        task.add_done_callback(self._send_tasks.discard)

    async def _send_or_drop(self, worker: WorkerHandle, frame: ClusterFrame) -> None:
        try:
            await send_frame(worker.writer, frame)
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            if worker.name in self._workers:
                self._drop_worker(worker, reason="send failed")

    async def _send_safe(self, worker: WorkerHandle, frame: ClusterFrame) -> None:
        try:
            await send_frame(worker.writer, frame)
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass

    def _requeue(self, state: ShardState, reason: str) -> None:
        """Push a failed/lost shard back with backoff, or fail the run."""
        if state.done or self._finished.is_set():
            return
        if state.attempts > self.max_retries:
            self._fail(
                ClusterError(
                    f"shard {state.shard.id} failed after "
                    f"{state.attempts} attempt(s) "
                    f"({self.max_retries} retries allowed): {reason}"
                )
            )
            return
        delay = self.retry_backoff_s * (2 ** (state.attempts - 1))
        state.next_eligible_at = self._clock() + delay
        self._c_redispatches.inc()
        self._emit(
            "shard-requeued",
            shard=state.shard.id,
            reason=reason,
            attempt=state.attempts,
            retry_in_s=round(delay, 6),
        )
        self._queue.append(state)

    def _end_span(self, shard_id: int, worker_name: str) -> None:
        """Close the dispatch span for one (shard, worker) copy, if open."""
        span = self._dispatch_spans.pop((shard_id, worker_name), None)
        if span is not None:
            span.end()

    def _drop_worker(self, worker: WorkerHandle, reason: str) -> None:
        self._workers.pop(worker.name, None)
        self.registry.counter("cluster.workers_lost").inc()
        if reason == "heartbeat timeout":
            self.registry.counter("cluster.worker_evictions").inc()
        self._emit(
            "worker-lost",
            worker=worker.name,
            reason=reason,
            workers=len(self._workers),
        )
        for shard_id in list(worker.shards):
            state = self._states_by_id[shard_id]
            self._end_span(shard_id, worker.name)
            state.active.discard(worker.name)
            if not state.done and not state.active:
                self._requeue(state, reason=f"worker {worker.name} {reason}")
        worker.shards.clear()
        if not self._workers:
            self._workerless_since = self._clock()

    def _fail(self, exc: BaseException) -> None:
        if not self._finished.is_set():
            self._failure = exc
            self._emit("cluster-failed", message=str(exc))
            self._finished.set()

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    async def _monitor_loop(self) -> None:
        tick = max(0.05, min(self.heartbeat_timeout / 4, 0.5))
        while not self._finished.is_set():
            await asyncio.sleep(tick)
            now = self._clock()
            for worker in list(self._workers.values()):
                if now - worker.last_seen > self.heartbeat_timeout:
                    self._drop_worker(worker, reason="heartbeat timeout")
                    await self._send_safe(worker, Shutdown(reason="heartbeat timeout"))
                    worker.writer.close()
            # Backoffs expire and workers go idle between messages; give
            # every idle worker a dispatch opportunity each tick.
            for worker in list(self._workers.values()):
                self._assign(worker)
            if (
                not self._workers
                and self._ever_had_workers
                and self._workerless_since is not None
                and now - self._workerless_since > self.no_worker_grace_s
                and len(self._results) < self.total_points
            ):
                self._fail(
                    ClusterError(
                        "every worker disconnected and none rejoined within "
                        f"{self.no_worker_grace_s:.1f}s; "
                        f"{self.total_points - len(self._results)} point(s) "
                        "unresolved"
                    )
                )

    # ------------------------------------------------------------------
    def _emit(self, kind: str, **data) -> None:
        if self._on_event is None:
            return
        self._on_event(Event(kind, {**data, "seq": next(self._seq)}))

    #: One handler per frame a coordinator accepts after register
    #: (``tests/test_frames.py`` holds the keys to :data:`WORKER_FRAMES`).
    _HANDLERS = {
        Heartbeat: _on_heartbeat,
        PointResult: _on_point_result,
        ShardDone: _on_shard_done,
        ShardError: _on_shard_error,
        Goodbye: _on_goodbye,
    }
