"""Sweep service: an async job queue over the execution layer.

Turns the sweep engine into a servable system: a long-running
:class:`SweepService` accepts prioritised grid submissions, expands them
to canonical points, **dedupes identical points across concurrent
jobs**, consults the shared :class:`~repro.exec.cache.ResultCache`
before dispatching anything, and batches the remainder onto the
existing executors — all while narrating progress as a JSONL
:class:`Event` stream.

Layers (bottom up):

* :mod:`repro.service.scheduler` — point claiming, cross-job dedup,
  cache consults, batched dispatch onto
  :meth:`~repro.exec.base.Executor.compute_stream`;
* :mod:`repro.service.jobs` — :class:`Job` lifecycle and the
  fair-share :class:`JobQueue`;
* :mod:`repro.service.store` — the :class:`JobStore` write-ahead log
  behind ``serve --state-dir`` crash recovery;
* :mod:`repro.service.auth` — :class:`AuthPolicy` token auth and
  per-client quotas (``serve --auth``);
* :mod:`repro.service.service` — the :class:`SweepService` facade;
* :mod:`repro.service.events` — the JSONL event vocabulary (shared
  with ``repro sweep --progress`` and the cluster coordinator);
* :mod:`repro.service.endpoints` — the endpoint grammar (Unix socket
  paths and ``tcp://host:port``), shared with the cluster fabric;
* :mod:`repro.service.spec` — :class:`SweepSpec`, the JSON-safe
  submission format, plus the channel-sweep factory;
* :mod:`repro.service.frames` — the typed request and refusal frames
  of the socket protocol;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  socket protocol behind ``python -m repro serve`` / ``submit`` /
  ``watch``.

See ``docs/service.md`` for the architecture and event schema.
"""

from repro.service.auth import AuthPolicy, ClientAccount, Quota
from repro.service.endpoints import Endpoint, parse_endpoint
from repro.service.events import EVENT_KINDS, Event, jsonl_progress
from repro.service.frames import Deny, QuotaExceeded
from repro.service.jobs import Job, JobQueue, JobStatus
from repro.service.scheduler import Scheduler
from repro.service.server import SweepServer
from repro.service.service import SweepService
from repro.service.spec import SweepSpec, load_spec
from repro.service.store import JobStore, StoredJob, WalState
from repro.service.client import (
    ServiceClient,
    ServiceDeniedError,
    ServiceError,
    ServiceProtocolError,
    ServiceQuotaError,
    ServiceTimeoutError,
    submit_and_stream,
    watch_and_stream,
)

__all__ = [
    "AuthPolicy",
    "ClientAccount",
    "Deny",
    "EVENT_KINDS",
    "Endpoint",
    "Event",
    "jsonl_progress",
    "Job",
    "JobQueue",
    "JobStatus",
    "JobStore",
    "load_spec",
    "parse_endpoint",
    "Quota",
    "QuotaExceeded",
    "Scheduler",
    "ServiceClient",
    "ServiceDeniedError",
    "ServiceError",
    "ServiceProtocolError",
    "ServiceQuotaError",
    "ServiceTimeoutError",
    "StoredJob",
    "SweepServer",
    "SweepService",
    "SweepSpec",
    "submit_and_stream",
    "watch_and_stream",
    "WalState",
]
