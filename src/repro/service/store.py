"""Crash-safe persistence for the sweep service: a JSONL write-ahead log.

:class:`JobStore` records every spec-backed submission and every job
state transition as one appended, flushed JSON line, so a ``serve
--state-dir`` process that dies — including via ``SIGKILL`` — can
rebuild its queue on restart: :meth:`replay` folds the log into a
:class:`WalState`, whose non-terminal jobs the service resubmits under
their original ids.  Point *results* are not duplicated here; they live
in the shared :class:`~repro.exec.cache.ResultCache`, which is what
makes a recovered job resume (all previously computed points replay as
cache hits) instead of restarting.

The log is torn-tail tolerant by construction.  Records are only ever
appended, each line is self-contained, and the final line is dropped
when it lacks its trailing newline — exactly the state a mid-``write``
crash can leave behind.  Interior lines that fail strict decoding are
skipped (and counted) rather than aborting recovery.

Three record kinds, each a :class:`~repro.wire.Frame` written tag first
by :func:`~repro.wire.encode_frame` (a ``None`` label is left out)::

    {"record":"meta","next_job_index":7}
    {"record":"job","id":"job-3","spec":{...},"priority":0,"client":"alice"}
    {"record":"state","id":"job-3","status":"running"}

Compaction (:meth:`compact`) rewrites the log to one ``meta`` line plus
the records of the jobs still retained by the service, via the same
tmp-file + :func:`os.replace` idiom as :meth:`ResultCache.store` — a
reader sees either the old log or the new one, never a half-written
file.  The ``meta`` record preserves the job-id counter across
compactions so terminal jobs can be dropped without ever reissuing an
id that a cache entry or a client transcript might still reference.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.service.jobs import JobStatus
from repro.wire import Frame, decode_frame, encode_frame, frame_table

__all__ = [
    "JobRecord",
    "JobStore",
    "MetaRecord",
    "StateRecord",
    "StoredJob",
    "TERMINAL_STATUSES",
    "WAL_RECORDS",
    "WalState",
]

#: Job statuses that replay as "nothing left to do".
TERMINAL_STATUSES = frozenset(
    status.value for status in JobStatus if status.terminal
)


class WalRecord(Frame):
    """One line of the write-ahead log."""

    key = "record"


@dataclass(frozen=True)
class MetaRecord(WalRecord):
    """The job-id watermark, written first by every compaction."""

    tag = "meta"
    next_job_index: int

    def __post_init__(self) -> None:
        if self.next_job_index < 1:
            raise ConfigurationError(
                f"next_job_index must be >= 1, got {self.next_job_index}"
            )


@dataclass(frozen=True)
class JobRecord(WalRecord):
    """One accepted submission; its JSON spec travels whole."""

    tag = "job"
    id: str
    spec: Mapping[str, object]
    priority: int = 0
    label: str | None = None
    client: str = "anonymous"


@dataclass(frozen=True)
class StateRecord(WalRecord):
    """One state transition (``running``, ``ok``, ...)."""

    tag = "state"
    id: str
    status: str


#: The records :meth:`JobStore.replay` decodes.
WAL_RECORDS = frame_table(MetaRecord, JobRecord, StateRecord)


@dataclass
class StoredJob:
    """One job as the write-ahead log knows it."""

    id: str
    spec: dict
    priority: int = 0
    label: str | None = None
    client: str = "anonymous"
    status: str = JobStatus.QUEUED.value

    @property
    def pending(self) -> bool:
        """Does this job still need to run after a restart?"""
        return self.status not in TERMINAL_STATUSES


@dataclass
class WalState:
    """Everything :meth:`JobStore.replay` recovers from the log."""

    #: Job id -> last recorded state, in first-record order.
    jobs: dict[str, StoredJob]
    #: Next job index to issue (``job-N``); never reuses a logged id.
    next_job_index: int = 1
    #: Records applied.
    records: int = 0
    #: Lines dropped as torn, corrupt, or orphaned.
    dropped: int = 0

    def pending(self) -> list[StoredJob]:
        """Jobs to resubmit, in original submission order."""
        return [job for job in self.jobs.values() if job.pending]


def _job_index(job_id: str) -> int:
    """The N of a ``job-N`` id; 0 for ids minted elsewhere."""
    prefix, _, tail = job_id.partition("-")
    if prefix == "job" and tail.isdigit():
        return int(tail)
    return 0


class JobStore:
    """Append-only JSONL WAL of job specs and state transitions.

    Parameters
    ----------
    state_dir:
        Directory holding the log (created on first append).  One store
        per directory; the service owns it exclusively.
    fsync:
        Force each append through to the device.  The default relies on
        the OS page cache, which survives process death — the fault
        model the service defends against; flip it on when the state
        directory must also survive power loss.
    """

    WAL_NAME = "jobs.wal"
    #: Appends between automatic compactions (the service checks
    #: :meth:`should_compact` after each terminal transition).
    COMPACT_EVERY = 512

    def __init__(
        self,
        state_dir: str | os.PathLike,
        *,
        fsync: bool = False,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.path = self.state_dir / self.WAL_NAME
        self.fsync = bool(fsync)
        self._appended = 0
        self._handle: IO[bytes] | None = None

    # -- appending ------------------------------------------------------
    def record_job(
        self,
        job_id: str,
        spec: Mapping[str, object],
        *,
        priority: int = 0,
        label: str | None = None,
        client: str = "anonymous",
    ) -> None:
        """Log one accepted submission (its JSON spec travels whole)."""
        self._append(JobRecord(job_id, spec, priority, label, client))

    def record_state(self, job_id: str, status: str) -> None:
        """Log one state transition (``running``, ``ok``, ...)."""
        self._append(StateRecord(job_id, status))

    def should_compact(self) -> bool:
        return self._appended >= self.COMPACT_EVERY

    def _append(self, record: WalRecord) -> None:
        if self._handle is None or self._handle.closed:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
        self._handle.write(encode_frame(record))
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._appended += 1

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None and not handle.closed:
            handle.close()

    # -- recovery -------------------------------------------------------
    def replay(self) -> WalState:
        """Fold the log into a :class:`WalState`; never raises on damage.

        The final line is discarded when it lacks a trailing newline (a
        torn append); any line that fails strict decoding (an unknown
        record kind included: a newer writer's extension), or a
        ``state`` record whose job record is gone, is counted in
        ``dropped`` and skipped.  Because records are append-only,
        truncation can only lose a *suffix* — every surviving record is
        consistent with the prefix that produced it.
        """
        state = WalState(jobs={})
        try:
            data = self.path.read_bytes()
        except OSError:
            return state
        body, newline, tail = data.rpartition(b"\n")
        if tail:
            state.dropped += 1  # torn final record: mid-append crash
        if not newline:
            return state
        for line in body.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = decode_frame(WAL_RECORDS, line)
            except ConfigurationError:
                state.dropped += 1
                continue
            if isinstance(record, MetaRecord):
                state.next_job_index = max(
                    state.next_job_index, record.next_job_index
                )
            elif isinstance(record, JobRecord):
                state.jobs[record.id] = StoredJob(**vars(record))
                state.next_job_index = max(
                    state.next_job_index, _job_index(record.id) + 1
                )
            elif record.id in state.jobs:
                state.jobs[record.id].status = record.status
            else:
                state.dropped += 1  # orphaned: its job line was lost
                continue
            state.records += 1
        return state

    # -- compaction -----------------------------------------------------
    def compact(
        self, entries: Iterable[StoredJob], *, next_job_index: int = 1
    ) -> None:
        """Atomically rewrite the log to ``meta`` + ``entries``.

        Same idiom as :meth:`ResultCache.store`: write a sibling tmp
        file, flush+fsync it, then :func:`os.replace` over the log — a
        crash at any instant leaves either the old log or the new one.
        """
        self.close()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        records: list[WalRecord] = [MetaRecord(max(1, next_job_index))]
        for job in entries:
            records.append(
                JobRecord(job.id, job.spec, job.priority, job.label, job.client)
            )
            if job.status != JobStatus.QUEUED.value:
                records.append(StateRecord(job.id, job.status))
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            handle.write(b"".join(map(encode_frame, records)))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._appended = 0
