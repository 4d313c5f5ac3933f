"""The long-running sweep service: queue + scheduler + event stream.

:class:`SweepService` is the in-process heart of service mode.  Clients
submit :class:`~repro.sweep.ParameterSweep` grids (with a priority) and
get a :class:`~repro.service.jobs.Job` back; worker tasks pull jobs off
the priority queue, claim their points through the deduplicating
:class:`~repro.service.scheduler.Scheduler`, and narrate everything as
:class:`~repro.service.events.Event` objects — per job (``job.events``,
``job.event_queue``) and to any number of service-wide subscribers.

Usage::

    async with SweepService(cache=ResultCache(".repro-cache")) as service:
        job = service.submit(sweep, priority=5)
        await job.wait()
        table = job.result()

The Unix-socket server (:mod:`repro.service.server`) is a thin network
shim over this class; tests and the tier-1 smoke benchmark drive it
directly, no sockets required.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.exec.base import ExecutionStats, Executor, PointTiming
from repro.obs import MetricsRegistry, get_registry
from repro.service.events import Event
from repro.service.jobs import Job, JobQueue, JobStatus
from repro.service.scheduler import Resolution, Scheduler
from repro.service.store import JobStore, StoredJob, WalState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.cache import ResultCache
    from repro.sweep import ParameterSweep

__all__ = ["SweepService"]


class SweepService:
    """Asyncio sweep service with cross-job dedup and progress events.

    Parameters
    ----------
    executor / cache / batch_size:
        Forwarded to the :class:`Scheduler` (see its docstring).
    workers:
        Concurrent jobs.  More workers means more cross-job point
        overlap (and therefore more dedup wins); priorities order job
        *starts* whenever workers are scarcer than queued jobs.
    job_ttl_s:
        Retention of *terminal* jobs (done / cancelled / failed) in
        :attr:`jobs`, seconds.  ``None`` (the default) keeps every job
        forever — the pre-GC behaviour; a long-running service should
        set a TTL so job tables and event logs stop accumulating.
        Eviction is opportunistic (on submit and on job completion) plus
        explicit via :meth:`gc`.
    clock:
        Monotonic time source for TTL bookkeeping and job timing (tests
        inject a fake; the default is the metrics registry's clock,
        which is the host monotonic clock unless injected too).
    registry:
        The :class:`~repro.obs.MetricsRegistry` this service records
        into (queue depth, dedup counters, job latency); the ``{"op":
        "metrics"}`` verb snapshots it.  Defaults to the process
        registry.
    store:
        Optional :class:`~repro.service.store.JobStore` write-ahead
        log.  When attached, every spec-backed submission and state
        transition is logged, and :meth:`recover` resubmits the jobs a
        crashed predecessor left unfinished (their computed points
        replay from the shared cache).  In-process submissions of raw
        sweeps have no JSON spec to persist and are never logged.
    """

    def __init__(
        self,
        executor: Executor | None = None,
        cache: "ResultCache | None" = None,
        batch_size: int = 8,
        workers: int = 2,
        job_ttl_s: float | None = None,
        clock: Callable[[], float] | None = None,
        registry: MetricsRegistry | None = None,
        store: JobStore | None = None,
    ) -> None:
        if job_ttl_s is not None and job_ttl_s < 0:
            raise ConfigurationError(
                f"job_ttl_s must be >= 0 or None, got {job_ttl_s}"
            )
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.queue = JobQueue()
        self.scheduler = Scheduler(
            executor=executor, cache=cache, batch_size=batch_size
        )
        self.workers = int(workers)
        self.job_ttl_s = job_ttl_s
        self.registry = registry if registry is not None else get_registry()
        self._clock = clock if clock is not None else self.registry.clock
        self.store = store
        self.jobs: dict[str, Job] = {}
        self._next_job_id = 1
        self._seq = itertools.count()
        self._worker_tasks: list[asyncio.Task] = []
        #: ``(queue, client)`` pairs; ``client=None`` sees every event,
        #: a named client only its own jobs' (tenant-scoped watchers).
        self._subscribers: list[tuple[asyncio.Queue, str | None]] = []
        self._g_queue_depth = self.registry.gauge("service.queue_depth")
        self._h_job_latency = self.registry.histogram("service.job_latency_s")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "SweepService":
        self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def start(self) -> None:
        """Spin up the scheduler and the worker tasks."""
        if self._worker_tasks:
            return
        self.scheduler.start()
        loop = asyncio.get_running_loop()
        self._worker_tasks = [
            loop.create_task(self._worker(), name=f"sweep-worker-{i}")
            for i in range(self.workers)
        ]

    async def stop(self) -> None:
        """Cancel workers and the scheduler; close subscriber streams."""
        # Take ownership of both lists before the first await: a second
        # stop() racing this one must not cancel/close anything twice.
        tasks, self._worker_tasks = self._worker_tasks, []
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        await self.scheduler.stop()
        subscribers, self._subscribers = self._subscribers, []
        for queue, _ in subscribers:
            queue.put_nowait(None)

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(
        self,
        sweep: "ParameterSweep",
        priority: int = 0,
        label: str | None = None,
        *,
        client: str = "anonymous",
        spec_payload: dict | None = None,
        job_id: str | None = None,
        record: bool = True,
    ) -> Job:
        """Queue one sweep; returns immediately with the live job.

        ``client`` is the tenant identity fair-share scheduling and
        quotas key on; ``spec_payload`` is the JSON submit payload kept
        for WAL persistence (``None`` skips logging — a raw in-process
        sweep cannot be replayed after a restart).  ``job_id`` and
        ``record=False`` are recovery's hooks: resubmit under the
        original id without re-logging a job record the WAL already
        holds.
        """
        self.gc()
        if job_id is None:
            job_id = f"job-{self._next_job_id}"
            self._next_job_id += 1
        else:
            from repro.service.store import _job_index

            self._next_job_id = max(self._next_job_id, _job_index(job_id) + 1)
        job = Job(
            id=job_id,
            sweep=sweep,
            priority=int(priority),
            label=label,
            client=str(client),
            spec_payload=spec_payload,
        )
        self.jobs[job.id] = job
        if record and self.store is not None and spec_payload is not None:
            self.store.record_job(
                job.id,
                spec_payload,
                priority=job.priority,
                label=job.label,
                client=job.client,
            )
        self._emit(
            job,
            "submitted",
            points=len(sweep.points()),
            priority=job.priority,
            label=job.label,
            client=job.client,
        )
        self.queue.put(job)
        self.registry.counter("service.jobs_submitted").inc()
        self._g_queue_depth.set(len(self.queue))
        return job

    def active_jobs(self, client: str) -> int:
        """How many of ``client``'s jobs are queued or running."""
        return sum(
            1
            for job in self.jobs.values()
            if job.client == client and not job.status.terminal
        )

    def cancel(self, job_id: str) -> bool:
        """Request cancellation of a queued or running job."""
        job = self.jobs.get(job_id)
        if job is None or job.status.terminal:
            return False
        job.cancel()
        return True

    def subscribe(
        self, client: str | None = None
    ) -> "asyncio.Queue[Event | None]":
        """Service-wide event feed; ``None`` marks service shutdown.

        With ``client`` the feed carries only that tenant's jobs — the
        socket server scopes authenticated non-admin watchers this way,
        so one tenant cannot observe another's progress, labels, or
        result rows.
        """
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.append((queue, client))
        return queue

    def unsubscribe(self, queue: "asyncio.Queue[Event | None]") -> None:
        """Detach one subscriber queue (watcher hung up).

        Without this, every disconnected ``watch`` client would leave a
        queue behind that :meth:`_emit` keeps filling forever.  Unknown
        queues are ignored — shutdown already cleared the list.
        """
        self._subscribers = [
            entry for entry in self._subscribers if entry[0] is not queue
        ]

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def gc(self, now: float | None = None) -> int:
        """Evict terminal jobs older than :attr:`job_ttl_s`.

        Dropping a job from :attr:`jobs` releases its result table and
        its whole event log; live jobs (queued or running) are never
        touched, and with ``job_ttl_s=None`` this is a no-op.  Returns
        the number of jobs evicted.  Runs opportunistically on every
        submit and job completion, so a busy service stays bounded
        without a background timer task.
        """
        if self.job_ttl_s is None:
            return 0
        if now is None:
            now = self._clock()
        expired = [
            job_id
            for job_id, job in self.jobs.items()
            if job.status.terminal
            and job.finished_at is not None
            and now - job.finished_at >= self.job_ttl_s
        ]
        for job_id in expired:
            del self.jobs[job_id]
        if expired and self.store is not None:
            # Evicted jobs must leave the WAL too, or the log would
            # replay ghosts the service no longer knows about.
            self._checkpoint()
        return len(expired)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def restore(self, state: WalState) -> list[Job]:
        """Resubmit a recovered WAL's pending jobs under their old ids.

        The id counter always advances to the log's watermark — even
        when nothing is pending — so a restarted service never reissues
        an id a cache entry or client transcript might still reference.
        A record whose JSON parsed but whose spec no longer loads (bit
        damage inside the payload, or a schema from another version) is
        skipped and counted in ``state.dropped`` — one bad record must
        cost one job, never crash-loop every restart until the WAL is
        hand-edited.
        """
        # Deferred: spec.py pulls in the channel/machine stack, which a
        # store-less in-process service never needs.
        from repro.service.spec import load_spec

        self._next_job_id = max(self._next_job_id, state.next_job_index)
        recovered: list[Job] = []
        for stored in state.pending():
            try:
                job = self.submit(
                    load_spec(stored.spec).build_sweep(),
                    priority=stored.priority,
                    label=stored.label,
                    client=stored.client,
                    spec_payload=dict(stored.spec),
                    job_id=stored.id,
                    record=False,
                )
            except Exception:
                state.dropped += 1
                continue
            recovered.append(job)
        return recovered

    async def recover(self) -> list[Job]:
        """Replay the WAL, resubmit unfinished jobs, compact the log.

        A no-op without a store.  Run it **before** :meth:`start`, so
        the restored queue is complete before workers begin consuming
        it (:class:`~repro.service.server.SweepServer` orders its
        startup this way).  The closing compaction folds the replayed
        history — torn tail, unloadable specs and all — into a clean
        log, so repeated crash/restart cycles cannot grow the WAL
        unboundedly; it runs on the event loop deliberately: WAL
        appends (:meth:`_record_state`) happen there too, so a running
        worker's append can never interleave with the rewrite and land
        in the replaced file.
        """
        if self.store is None:
            return []
        state = await asyncio.to_thread(self.store.replay)
        recovered = self.restore(state)
        self._checkpoint()
        if recovered:
            self.registry.counter("service.jobs_recovered").inc(len(recovered))
        if state.dropped:
            self.registry.counter("service.recover_dropped").inc(state.dropped)
        return recovered

    def _record_state(self, job: Job) -> None:
        """Log one job's current status; compact when the WAL is due."""
        if self.store is None or job.spec_payload is None:
            return
        self.store.record_state(job.id, job.status.value)
        if self.store.should_compact():
            self._checkpoint()

    def _store_entries(self) -> list[StoredJob]:
        """The retained spec-backed jobs, as compaction should write them."""
        return [
            StoredJob(
                id=job.id,
                spec=job.spec_payload,
                priority=job.priority,
                label=job.label,
                client=job.client,
                status=job.status.value,
            )
            for job in self.jobs.values()
            if job.spec_payload is not None
        ]

    def _checkpoint(self) -> None:
        if self.store is None:
            return
        self.store.compact(
            self._store_entries(), next_job_index=self._next_job_id
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _emit(self, job: Job | None, kind: str, **data) -> Event:
        payload = {"job": job.id if job is not None else None, **data}
        event = Event(kind, {**payload, "seq": next(self._seq)})
        if job is not None:
            job.events.append(event)
            job.event_queue.put_nowait(event)
            if kind == "job-done":
                job.event_queue.put_nowait(None)
        for queue, client in self._subscribers:
            if client is not None and (job is None or job.client != client):
                continue
            queue.put_nowait(event)
        return event

    async def _worker(self) -> None:
        while True:
            job = await self.queue.get()
            self._g_queue_depth.set(len(self.queue))
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        if job.cancel_requested:  # cancelled while queued: never starts
            self._finish(job, JobStatus.CANCELLED, points=0)
            return
        job.status = JobStatus.RUNNING
        self._record_state(job)
        start = self._clock()
        points = job.sweep.points()
        total = len(points)
        try:
            from repro.exec.canonical import callable_fingerprint

            fingerprint = callable_fingerprint(job.sweep.factory)
            self._emit(job, "scheduled", points=total)
            resolutions = self.scheduler.claim(
                job.id, points, job.sweep.factory, fingerprint
            )
        except Exception as exc:
            self._fail(job, exc, start)
            return
        self.registry.counter("service.points_claimed").inc(total)

        metrics_by_index: list = [None] * total
        timings: list[PointTiming] = []
        done = cache_hits = computed = shared = 0
        pending: dict[int, Resolution] = {}
        for index, resolution in enumerate(resolutions):
            if resolution.hit:
                metrics_by_index[index] = resolution.metrics
                timings.append(PointTiming(index=index, elapsed_s=0.0, cached=True))
                done += 1
                cache_hits += 1
                self.registry.counter(
                    "service.dedup_hits", source=resolution.source
                ).inc()
                self._emit(
                    job,
                    "cache-hit",
                    point=index,
                    done=done,
                    total=total,
                    source=resolution.source,
                )
            else:
                pending[index] = resolution

        cancel_wait = asyncio.ensure_future(job._cancel.wait())
        try:
            while pending:
                futures = {r.entry.future for r in pending.values()}
                await asyncio.wait(
                    futures | {cancel_wait},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if job.cancel_requested:
                    for resolution in pending.values():
                        self.scheduler.release(resolution.entry)
                    self._finish(
                        job,
                        JobStatus.CANCELLED,
                        points=total,
                        done=done,
                        elapsed_s=round(self._clock() - start, 6),
                    )
                    return
                failure: BaseException | None = None
                for index in [
                    i for i, r in list(pending.items()) if r.entry.future.done()
                ]:
                    resolution = pending.pop(index)
                    exc = resolution.entry.future.exception()
                    if exc is not None:
                        failure = exc
                        continue
                    metrics, elapsed = resolution.entry.future.result()
                    metrics_by_index[index] = metrics
                    timings.append(
                        PointTiming(index=index, elapsed_s=elapsed, cached=False)
                    )
                    done += 1
                    if resolution.entry.owner == job.id:
                        computed += 1
                        self.registry.counter("service.points_computed").inc()
                    else:
                        shared += 1
                        # Another job owned the computation: an in-flight
                        # dedup win, same family as the memory/disk hits.
                        self.registry.counter(
                            "service.dedup_hits", source="inflight"
                        ).inc()
                    self._emit(
                        job,
                        "point-done",
                        point=index,
                        done=done,
                        total=total,
                        elapsed_s=round(elapsed, 6),
                        shared=resolution.entry.owner != job.id,
                    )
                if failure is not None:
                    for resolution in pending.values():
                        self.scheduler.release(resolution.entry)
                    self._fail(job, failure, start)
                    return
        finally:
            cancel_wait.cancel()

        from repro.sweep import SweepResult

        try:
            table = job.sweep.build_table(
                [
                    SweepResult(point=points[i], metrics=metrics_by_index[i])
                    for i in range(total)
                ]
            )
        except Exception as exc:
            self._fail(job, exc, start)
            return
        elapsed_total = self._clock() - start
        job.table = table
        job.sweep.last_stats = job.stats = ExecutionStats(
            executor="service",
            jobs=self.workers,
            points=total,
            cache_hits=cache_hits,
            elapsed_s=elapsed_total,
            timings=sorted(timings, key=lambda t: t.index),
        )
        self._h_job_latency.observe(elapsed_total)
        self._finish(
            job,
            JobStatus.DONE,
            points=total,
            cache_hits=cache_hits,
            computed=computed,
            shared=shared,
            elapsed_s=round(elapsed_total, 6),
        )

    def _finish(self, job: Job, status: JobStatus, **data) -> None:
        job.finish(status, at=self._clock())
        self._record_state(job)
        self.registry.counter("service.jobs_finished", status=status.value).inc()
        self._emit(job, "job-done", status=status.value, **data)
        self.gc()

    def _fail(self, job: Job, exc: BaseException, start: float) -> None:
        job.error = f"{type(exc).__name__}: {exc}"
        self._emit(job, "error", message=job.error)
        job.finish(JobStatus.FAILED, at=self._clock())
        self._record_state(job)
        self.registry.counter(
            "service.jobs_finished", status=JobStatus.FAILED.value
        ).inc()
        self._emit(
            job,
            "job-done",
            status=JobStatus.FAILED.value,
            message=job.error,
            elapsed_s=round(self._clock() - start, 6),
        )
        self.gc()
