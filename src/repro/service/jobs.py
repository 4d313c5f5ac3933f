"""Jobs and the fair-share queue feeding the sweep service.

A :class:`Job` is one submitted :class:`~repro.sweep.ParameterSweep`
plus its lifecycle: queued -> running -> done / cancelled / failed.  The
:class:`JobQueue` hands queued jobs to the service's workers
round-robin across clients (so one tenant's backlog cannot starve
another's single job), highest priority first within a client (FIFO
within a priority), and cancellation works at any stage — a queued job
never starts, a running job stops at the next point boundary.
"""

from __future__ import annotations

import asyncio
import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.service.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.base import ExecutionStats
    from repro.sweep import ParameterSweep, SweepTable

__all__ = ["JobStatus", "Job", "JobQueue"]


class JobStatus(str, enum.Enum):
    """Lifecycle states of a submitted sweep."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "ok"
    CANCELLED = "cancelled"
    FAILED = "error"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.CANCELLED, JobStatus.FAILED)


@dataclass
class Job:
    """One submitted sweep and everything the service learns about it."""

    id: str
    sweep: "ParameterSweep"
    priority: int = 0
    label: str | None = None
    #: Tenant that submitted the job (fair-share and quota identity).
    client: str = "anonymous"
    #: The JSON submit payload, kept for WAL persistence; ``None`` for
    #: in-process submissions of raw sweeps (which cannot be replayed
    #: after a restart and are therefore never logged).
    spec_payload: dict | None = None
    status: JobStatus = JobStatus.QUEUED
    #: Populated on success.
    table: "SweepTable | None" = None
    stats: "ExecutionStats | None" = None
    #: Populated on failure.
    error: str | None = None
    #: Every event emitted for this job, in emission order.
    events: list[Event] = field(default_factory=list)
    #: Live event feed (one reader); ``None`` is the end-of-stream mark.
    #: The socket server drops it (sets ``None``) once it has read that
    #: mark, so a finished job does not keep an idle queue.
    event_queue: "asyncio.Queue[Event | None] | None" = field(
        default_factory=asyncio.Queue
    )
    #: Monotonic timestamp of the terminal transition (service clock);
    #: ``None`` while the job is live.  Drives TTL-based job GC.
    finished_at: float | None = None
    # Set by cancel(); outlives the _cancel event.  Both events exist
    # only while the job is live: finish() releases them, since a
    # finished job never waits again.
    _cancel_requested: bool = False
    _cancel: asyncio.Event | None = field(default_factory=asyncio.Event)
    _finished: asyncio.Event | None = field(default_factory=asyncio.Event)

    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Request cancellation; takes effect at the next point boundary."""
        self._cancel_requested = True
        if self._cancel is not None:
            self._cancel.set()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    async def wait(self) -> JobStatus:
        """Block until the job reaches a terminal status."""
        if self._finished is not None:
            await self._finished.wait()
        return self.status

    def result(self) -> "SweepTable":
        """The finished job's table; raises if it did not complete."""
        if self.status is not JobStatus.DONE or self.table is None:
            raise ConfigurationError(
                f"job {self.id} has no result (status: {self.status.value})"
            )
        return self.table

    def finish(self, status: JobStatus, at: float | None = None) -> None:
        """Mark terminal state and release every waiter."""
        self.status = status
        self.finished_at = at
        self._finished.set()
        self._cancel = self._finished = None


class JobQueue:
    """Fair-share queue of submitted jobs (await-able, cancellation-aware).

    One priority heap per client, served round-robin by
    least-recently-served: each :meth:`get` picks the client that has
    waited longest since its last dequeue (ties broken by name, so the
    order is deterministic) and pops that client's best job — higher
    ``priority`` first, submission order within a priority.  A single
    client therefore degenerates to the plain priority queue, while a
    tenant with a thousand queued jobs still yields every other turn to
    a tenant with one.  Cross-tenant, fairness deliberately outranks
    priority: a tenant cannot jump another's turn by inflating its
    priorities (admission quotas live in
    :class:`~repro.service.auth.AuthPolicy`).

    Jobs cancelled while queued are still handed out (so the service
    can emit their terminal event) but are never executed.
    """

    def __init__(self) -> None:
        self._heaps: dict[str, list[tuple[int, int, Job]]] = {}
        self._last_served: dict[str, int] = {}
        self._seq = itertools.count()
        self._turns = itertools.count()
        self._available = asyncio.Event()

    def put(self, job: Job) -> None:
        self._heaps.setdefault(job.client, [])
        heapq.heappush(
            self._heaps[job.client], (-job.priority, next(self._seq), job)
        )
        self._available.set()

    async def get(self) -> Job:
        """Wait for, then pop, the next job under fair-share order."""
        while not self._heaps:
            self._available.clear()
            await self._available.wait()
        client = min(
            self._heaps, key=lambda name: (self._last_served.get(name, -1), name)
        )
        heap = self._heaps[client]
        _, _, job = heapq.heappop(heap)
        # The serve stamp outlives a drained heap on purpose: a client
        # that resubmits right after its queue empties resumes its slot
        # in the rotation instead of re-entering as "never served" and
        # cutting ahead of tenants still waiting their turn.
        self._last_served[client] = next(self._turns)
        if not heap:
            del self._heaps[client]
        return job

    def __len__(self) -> int:
        return sum(len(heap) for heap in self._heaps.values())
