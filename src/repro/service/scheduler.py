"""Deduplicating point scheduler: the sweep service's execution core.

Every submitted grid expands to canonical points, and each point's
identity is its :func:`repro.exec.canonical.point_key` — the same
content hash the on-disk :class:`~repro.exec.cache.ResultCache` uses.
The scheduler resolves each point through three layers, cheapest first:

1. **memory** — results already computed in this service's lifetime;
2. **disk** — the shared :class:`ResultCache`, consulted *before*
   dispatch so cache-warm jobs never touch an executor;
3. **in-flight dedup** — a point another concurrent job is already
   computing is awaited, not recomputed: submitting the same grid twice
   concurrently executes each unique point exactly once.

Only points that survive all three are batched to the worker pool,
which bridges onto the existing synchronous executors
(:class:`~repro.exec.serial.SerialExecutor` /
:class:`~repro.exec.parallel.ParallelExecutor`) through
:meth:`~repro.exec.base.Executor.compute_stream` in a thread, so the
event loop keeps serving submissions and cancellations while points
compute.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.exec.base import Executor
from repro.exec.cache import ResultCache
from repro.exec.canonical import point_key
from repro.exec.serial import SerialExecutor
from repro.sweep import SweepPoint

__all__ = ["PointEntry", "Resolution", "Scheduler"]


@dataclass
class PointEntry:
    """One unique in-flight computation, shared by its subscribers."""

    key: str
    point: SweepPoint
    factory: Callable[[SweepPoint], Mapping[str, float]]
    fingerprint: str
    owner: str  # job id that first claimed the point
    future: "asyncio.Future[tuple[Mapping[str, float], float]]"
    refs: int = 0
    dispatched: bool = False


@dataclass(frozen=True)
class Resolution:
    """How one claimed point will get its metrics."""

    #: ``"memory" | "disk"`` (instant hit) or ``"pending"`` (await entry).
    source: str
    metrics: Mapping[str, float] | None = None
    entry: PointEntry | None = None

    @property
    def hit(self) -> bool:
        return self.entry is None


class Scheduler:
    """Claims grid points for jobs, dedupes, and dispatches batches.

    Parameters
    ----------
    executor:
        Synchronous executor the batches run on (default
        :class:`SerialExecutor`; a
        :class:`~repro.exec.parallel.ParallelExecutor` fans each batch
        across processes).
    cache:
        Optional shared :class:`ResultCache`, consulted at claim time
        and written as points complete.
    batch_size:
        Max points per executor dispatch.  Smaller batches mean finer
        cancellation granularity; larger ones amortise pool overhead.
    """

    def __init__(
        self,
        executor: Executor | None = None,
        cache: ResultCache | None = None,
        batch_size: int = 8,
    ) -> None:
        self.executor = executor if executor is not None else SerialExecutor()
        self.cache = cache
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.batch_size = int(batch_size)
        #: Results computed during this service's lifetime, by point key.
        self._memory: dict[str, Mapping[str, float]] = {}
        #: Unresolved unique points, by key.
        self._inflight: dict[str, PointEntry] = {}
        self._dispatch: deque[PointEntry] = deque()
        self._work = asyncio.Event()
        self._task: asyncio.Task | None = None
        #: Points actually executed (the dedup/caching savings metric).
        self.executions = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._dispatch_loop(), name="sweep-scheduler"
            )

    async def stop(self) -> None:
        # Swap before awaiting: a second concurrent stop() (or a
        # start() racing it) must never observe the half-cancelled task.
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    # ------------------------------------------------------------------
    # claiming
    # ------------------------------------------------------------------
    def claim(
        self,
        job_id: str,
        points: Sequence[SweepPoint],
        factory: Callable[[SweepPoint], Mapping[str, float]],
        fingerprint: str,
    ) -> list[Resolution]:
        """Resolve every point against memory/disk/in-flight, registering
        the rest for dispatch.  Synchronous (no awaits), so one job's
        claim is atomic with respect to other jobs on the loop.
        """
        resolutions: list[Resolution] = []
        for point in points:
            key = point_key(point.values, point.trial, point.seed, fingerprint)
            metrics = self._memory.get(key)
            if metrics is not None:
                resolutions.append(Resolution(source="memory", metrics=metrics))
                continue
            if self.cache is not None:
                metrics = self.cache.load(point, fingerprint)
                if metrics is not None:
                    self._memory[key] = metrics
                    resolutions.append(Resolution(source="disk", metrics=metrics))
                    continue
            entry = self._inflight.get(key)
            if entry is None:
                entry = PointEntry(
                    key=key,
                    point=point,
                    factory=factory,
                    fingerprint=fingerprint,
                    owner=job_id,
                    future=asyncio.get_running_loop().create_future(),
                )
                self._inflight[key] = entry
                self._dispatch.append(entry)
                self._work.set()
            entry.refs += 1
            resolutions.append(Resolution(source="pending", entry=entry))
        return resolutions

    def release(self, entry: PointEntry) -> None:
        """Drop one subscription (job cancelled or failed mid-grid).

        A point nobody wants any more is removed before dispatch;
        already-dispatched points run to completion (their result still
        feeds the memo and cache).
        """
        entry.refs -= 1
        if entry.refs <= 0 and not entry.dispatched:
            self._inflight.pop(entry.key, None)
            try:
                self._dispatch.remove(entry)
            except ValueError:  # pragma: no cover - already popped
                pass
            if not entry.future.done():
                entry.future.cancel()

    # ------------------------------------------------------------------
    # dispatching
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._dispatch:
                self._work.clear()
                await self._work.wait()
                continue
            batch = self._next_batch()
            if not batch:
                continue
            for entry in batch:
                entry.dispatched = True
            try:
                await asyncio.to_thread(self._run_batch, loop, batch)
            except Exception as exc:  # factory blew up: fail the batch
                for entry in batch:
                    self._inflight.pop(entry.key, None)
                    if not entry.future.done():
                        entry.future.set_exception(exc)

    def _next_batch(self) -> list[PointEntry]:
        """Pop up to ``batch_size`` live entries sharing one factory."""
        batch: list[PointEntry] = []
        skipped: list[PointEntry] = []
        while self._dispatch and len(batch) < self.batch_size:
            entry = self._dispatch.popleft()
            if entry.refs <= 0:  # cancelled while queued
                self._inflight.pop(entry.key, None)
                if not entry.future.done():
                    entry.future.cancel()
                continue
            if batch and entry.fingerprint != batch[0].fingerprint:
                skipped.append(entry)  # different factory: next batch
                continue
            batch.append(entry)
        self._dispatch.extendleft(reversed(skipped))
        return batch

    def _run_batch(self, loop: asyncio.AbstractEventLoop, batch: list[PointEntry]) -> None:
        """Worker-thread body: stream one batch through the executor."""
        pending = [(i, entry.point) for i, entry in enumerate(batch)]
        factory = batch[0].factory
        resolved = 0
        for index, metrics, elapsed in self.executor.compute_stream(
            pending, factory
        ):
            entry = batch[index]
            if self.cache is not None:
                self.cache.store(entry.point, entry.fingerprint, metrics)
            loop.call_soon_threadsafe(self._resolve, entry, metrics, elapsed)
            resolved += 1
        if resolved != len(batch):  # pragma: no cover - defensive
            raise RuntimeError(
                f"executor resolved {resolved}/{len(batch)} batch points"
            )

    def _resolve(
        self, entry: PointEntry, metrics: Mapping[str, float], elapsed: float
    ) -> None:
        self.executions += 1
        self._memory[entry.key] = metrics
        self._inflight.pop(entry.key, None)
        if not entry.future.done():
            entry.future.set_result((metrics, elapsed))
