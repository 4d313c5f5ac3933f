"""Socket front door for the sweep service (JSONL protocol).

One request per connection, newline-delimited JSON both ways.  The
request line is decoded strictly into one of the frame classes of
:mod:`repro.service.frames` and handed to that class's handler; a
malformed request answers one ``error`` event.  The ops:

* ``{"op": "submit", "spec": {...}}`` — validate the
  :class:`~repro.service.spec.SweepSpec`, queue it, then stream the
  job's events until ``job-done`` (which is enriched with the result
  rows so clients can render the table without a second round trip);
* ``{"op": "cancel", "job": "job-3"}`` — request cancellation; answers
  ``{"event": "cancel", "job": ..., "ok": true/false}``.  Under an
  auth policy only the submitting tenant (or an admin account) may
  cancel a job — anyone else gets a ``deny`` frame (``not-owner``);
* ``{"op": "ping"}`` — liveness check, answers ``{"event": "pong"}``
  with queue/scheduler counters;
* ``{"op": "metrics"}`` — answers ``{"event": "metrics"}`` carrying the
  deterministic snapshot of the service process's
  :class:`~repro.obs.MetricsRegistry` (exec, service, and — when the
  executor is distributed — cluster instruments; see
  ``docs/observability.md``);
* ``{"op": "watch"}`` — subscribe to the service event feed: after an
  initial ``watching`` acknowledgement, events stream to the client
  until it hangs up or the service stops (the stream then ends
  cleanly).  Any number of watchers may be connected at once; an
  optional ``"kinds": [...]`` list filters the stream.  Under an auth
  policy the feed is tenant-scoped — a non-admin account sees only its
  own jobs' events; admin accounts see every tenant's.

The primary listener is a Unix domain socket — machine-local and
permission-guarded by the filesystem.  An *additional* TCP listener can
be enabled (``tcp="host:port"``) for remote monitoring and submission;
the protocol is identical, and both listeners honour the same optional
:class:`~repro.service.auth.AuthPolicy`: every request may carry a
``"token"`` key, an unacceptable token answers ``{"event": "deny"}``,
and a submission over the account's quota answers ``{"event":
"quota-exceeded"}`` (with ``retry_after_s`` for rate denials).  Without
a policy the Unix socket relies on filesystem permissions as before —
but see ``docs/distributed.md`` (and ``docs/service.md``) before
binding TCP beyond loopback.
"""

from __future__ import annotations

import asyncio
import os
from pathlib import Path

from repro.errors import ConfigurationError, ReproError
from repro.service.auth import AuthPolicy, ClientAccount
from repro.service.endpoints import (
    LINE_LIMIT,
    Endpoint,
    parse_endpoint,
    start_endpoint_server,
)
from repro.service.events import Event
from repro.service.frames import (
    REQUESTS,
    CancelRequest,
    Deny,
    MetricsRequest,
    PingRequest,
    SubmitRequest,
    WatchRequest,
)
from repro.service.service import SweepService
from repro.service.spec import load_spec
from repro.wire import decode_frame, send_frame

__all__ = ["SweepServer"]


class SweepServer:
    """Serves one :class:`SweepService` over a Unix socket (and optional TCP)."""

    def __init__(
        self,
        service: SweepService,
        socket_path: str | os.PathLike,
        tcp: str | None = None,
        auth: AuthPolicy | None = None,
    ) -> None:
        self.service = service
        self.auth = auth
        self.socket_path = Path(socket_path)
        self._server: asyncio.AbstractServer | None = None
        self._tcp_server: asyncio.AbstractServer | None = None
        self.tcp_endpoint = parse_endpoint(tcp) if tcp else None
        if self.tcp_endpoint is not None and not self.tcp_endpoint.is_tcp:
            raise ConfigurationError(
                f"tcp listener needs a host:port endpoint, got {tcp!r}"
            )
        #: Bound TCP address after :meth:`start` (resolves port 0).
        self.tcp_address: Endpoint | None = None

    # ------------------------------------------------------------------
    def _prepare_socket_path(self) -> None:
        """Clear a stale socket and ensure its directory exists.

        Synchronous filesystem work, so it runs in a worker thread: a
        slow/network filesystem must not stall the event loop (and the
        async-blocking lint rule holds the service to that).
        """
        if self.socket_path.exists():
            self.socket_path.unlink()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)

    async def start(self) -> None:
        await asyncio.to_thread(self._prepare_socket_path)
        # Recover before the workers spin up and before listening: the
        # restored queue must not be consumed (appending new WAL state
        # records) while recovery's closing compaction rewrites the
        # log, and a client connecting right after the restart must
        # already see the predecessor's unfinished jobs.
        await self.service.recover()
        self.service.start()
        self._server = await asyncio.start_unix_server(
            self._handle, path=str(self.socket_path), limit=LINE_LIMIT
        )
        if self.tcp_endpoint is not None:
            self._tcp_server, self.tcp_address = await start_endpoint_server(
                self._handle, self.tcp_endpoint
            )

    async def stop(self) -> None:
        # Detach both listeners before the first await so a concurrent
        # stop() (or a serve_forever() waking up) sees them gone at once.
        servers = (self._server, self._tcp_server)
        self._server = None
        self._tcp_server = None
        for server in servers:
            if server is not None:
                server.close()
                await server.wait_closed()
        await self.service.stop()
        await asyncio.to_thread(self.socket_path.unlink, missing_ok=True)

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``python -m repro serve`` loop)."""
        await self.start()
        try:
            assert self._server is not None
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                request = decode_frame(REQUESTS, line)
                account: ClientAccount | None = None
                if self.auth is not None:
                    outcome = self.auth.authenticate(request.token)
                    if isinstance(outcome, Deny):
                        await send_frame(writer, outcome)
                        return
                    account = outcome
                await self._HANDLERS[type(request)](self, request, writer, account)
            except (ValueError, ReproError) as exc:
                await self._send(writer, Event("error", {"message": str(exc)}))
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_submit(
        self,
        request: SubmitRequest,
        writer: asyncio.StreamWriter,
        account: ClientAccount | None,
    ) -> None:
        spec = load_spec(request.spec)
        if self.auth is not None and account is not None:
            # Admit on the grid's axis-length product, *before*
            # build_sweep() materialises the cross-product: the points
            # quota must bound the expansion cost, not audit a
            # potentially huge list the server already paid for.
            denial = self.auth.admit_submit(
                account,
                points=spec.point_count(),
                active_jobs=self.service.active_jobs(account.name),
            )
            if denial is not None:
                await send_frame(writer, denial)
                return
        sweep = spec.build_sweep()
        job = self.service.submit(
            sweep,
            priority=spec.priority,
            label=spec.label,
            client=account.name if account is not None else "anonymous",
            spec_payload=dict(request.spec),
        )
        # job.event_queue carries every event from "submitted" onwards
        # (the job is created inside submit(), before any emission), so
        # draining it until the sentinel streams the full history.
        while True:
            event = await job.event_queue.get()
            if event is None:
                job.event_queue = None  # the feed is spent; the job may live on
                break
            if event.kind == "job-done" and job.table is not None:
                event = Event(
                    event.kind,
                    {
                        **event.data,
                        "parameters": list(job.table.parameter_names),
                        "metrics": list(job.table.metric_names),
                        "rows": job.table.rows(),
                    },
                )
            await self._send(writer, event)

    async def _handle_cancel(
        self,
        request: CancelRequest,
        writer: asyncio.StreamWriter,
        account: ClientAccount | None,
    ) -> None:
        """Cancel a job — but only the requesting tenant's own.

        Job ids are predictable (``job-1``, ``job-2``, ...), so without
        the ownership check any authenticated client could kill every
        other tenant's work with a trivial id sweep.  Another tenant's
        job answers a ``deny`` frame (``not-owner``); admin accounts
        may cancel anything.  Unknown ids answer ``ok: false`` as
        before.
        """
        job_id = request.job
        if account is not None and not account.admin:
            job = self.service.jobs.get(job_id)
            if job is not None and job.client != account.name:
                await send_frame(
                    writer,
                    Deny(
                        reason="not-owner",
                        message=(
                            f"job {job_id} belongs to another tenant; only "
                            "its submitter (or an admin account) may cancel "
                            "it"
                        ),
                    ),
                )
                return
        await self._send(
            writer,
            Event(
                "cancel",
                {"job": job_id, "ok": self.service.cancel(job_id)},
            ),
        )

    async def _handle_ping(
        self,
        request: PingRequest,
        writer: asyncio.StreamWriter,
        account: ClientAccount | None,
    ) -> None:
        await self._send(
            writer,
            Event(
                "pong",
                {
                    "jobs": len(self.service.jobs),
                    "queued": len(self.service.queue),
                    "executions": self.service.scheduler.executions,
                    "watchers": self.service.subscriber_count,
                },
            ),
        )

    async def _handle_metrics(
        self,
        request: MetricsRequest,
        writer: asyncio.StreamWriter,
        account: ClientAccount | None,
    ) -> None:
        await self._send(
            writer,
            Event("metrics", {"snapshot": self.service.registry.snapshot()}),
        )

    async def _handle_watch(
        self,
        request: WatchRequest,
        writer: asyncio.StreamWriter,
        account: ClientAccount | None,
    ) -> None:
        """Stream the service event feed until hangup or shutdown.

        Each watcher gets its own subscriber queue, so any number can be
        connected concurrently without slowing each other (or the
        service: emission is a non-blocking ``put_nowait`` per queue).
        Under an auth policy the feed is tenant-scoped: a non-admin
        account only receives its own jobs' events — the service-wide
        stream (including other tenants' labels and result rows) is
        reserved for admin accounts and policy-less servers.
        """
        kinds = frozenset(request.kinds) if request.kinds is not None else None
        scope = (
            account.name
            if account is not None and not account.admin
            else None
        )
        queue = self.service.subscribe(client=scope)
        try:
            await self._send(
                writer,
                Event(
                    "watching",
                    {
                        "jobs": len(self.service.jobs),
                        "queued": len(self.service.queue),
                        "watchers": self.service.subscriber_count,
                    },
                ),
            )
            while True:
                event = await queue.get()
                if event is None:
                    break  # service shutdown: end the stream cleanly
                if kinds is not None and event.kind not in kinds:
                    continue
                await self._send(writer, event)
        finally:
            self.service.unsubscribe(queue)

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, event: Event) -> None:
        writer.write(event.to_json().encode() + b"\n")
        await writer.drain()

    #: One handler per request frame (``tests/test_frames.py`` holds the
    #: keys to :data:`~repro.service.frames.REQUESTS`).
    _HANDLERS = {
        SubmitRequest: _handle_submit,
        CancelRequest: _handle_cancel,
        PingRequest: _handle_ping,
        MetricsRequest: _handle_metrics,
        WatchRequest: _handle_watch,
    }
