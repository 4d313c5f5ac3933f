"""Client side of the sweep service's Unix-socket protocol.

:class:`ServiceClient` is the async API; :func:`submit_and_stream` is
the synchronous convenience the ``python -m repro submit`` command uses:
it submits one :class:`~repro.service.spec.SweepSpec`, mirrors every
event as a JSONL line on ``events_out`` (stderr in the CLI), and returns
the terminal ``job-done`` event — whose ``rows`` payload carries the
aggregated result table.

Server-side refusals arrive as protocol frames and surface here as
typed exceptions: a ``deny`` frame raises :class:`ServiceDeniedError`,
``quota-exceeded`` raises :class:`ServiceQuotaError` (carrying
``retry_after_s`` for rate denials), an undecodable or non-event frame
(or a malformed refusal) raises :class:`ServiceProtocolError` instead
of hanging the stream, and ``timeout_s`` bounds every read with
:class:`ServiceTimeoutError`.  The
server's in-band ``error`` events (a bad spec, an unknown op) still
stream through as events — they answer a request that *was* accepted.
"""

from __future__ import annotations

import asyncio
import os
import sys
from typing import IO, AsyncIterator

from repro.errors import ConfigurationError, ReproError
from repro.service.endpoints import open_endpoint, parse_endpoint
from repro.service.events import Event
from repro.service.frames import (
    REFUSALS,
    CancelRequest,
    Deny,
    MetricsRequest,
    PingRequest,
    QuotaExceeded,
    Request,
    SubmitRequest,
    WatchRequest,
)
from repro.service.spec import SweepSpec
from repro.wire import decode_frame, send_frame

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceDeniedError",
    "ServiceQuotaError",
    "ServiceTimeoutError",
    "ServiceProtocolError",
    "submit_and_stream",
    "watch_and_stream",
    "fetch_metrics",
]


class ServiceError(ReproError):
    """Base of every error the sweep service client raises itself."""


class ServiceDeniedError(ServiceError):
    """The server refused the request (``deny`` frame): bad/missing token."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(f"{message} [{reason}]")
        self.reason = reason


class ServiceQuotaError(ServiceDeniedError):
    """The request was over quota (``quota-exceeded`` frame)."""

    def __init__(
        self, reason: str, message: str, retry_after_s: float | None = None
    ) -> None:
        super().__init__(reason, message)
        #: Seconds until a rate-limited client may retry; ``None`` for
        #: denials (active jobs, points) where waiting alone won't help.
        self.retry_after_s = retry_after_s


class ServiceTimeoutError(ServiceError):
    """No frame arrived within the client's ``timeout_s``."""


class ServiceProtocolError(ServiceError):
    """The server sent bytes that are not a protocol frame."""


#: The typed error each refusal frame raises.
_REFUSAL_ERRORS = {
    Deny: lambda frame: ServiceDeniedError(frame.reason, frame.message),
    QuotaExceeded: lambda frame: ServiceQuotaError(
        frame.reason, frame.message, frame.retry_after_s
    ),
}


class ServiceClient:
    """Talks JSONL to a :class:`~repro.service.server.SweepServer`.

    ``socket_path`` accepts any endpoint string the service can listen
    on: a Unix socket path (the default transport) or ``tcp://host:port``
    / bare ``host:port`` when the server was started with a TCP listener.
    ``token`` authenticates every request against the server's
    :class:`~repro.service.auth.AuthPolicy` (omit it for policy-less
    servers); ``timeout_s`` bounds each frame read.
    """

    def __init__(
        self,
        socket_path: str | os.PathLike,
        *,
        token: str | None = None,
        timeout_s: float | None = None,
    ) -> None:
        self.socket_path = str(socket_path)
        self.endpoint = parse_endpoint(self.socket_path)
        self.token = token
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    async def submit(self, spec: SweepSpec) -> AsyncIterator[Event]:
        """Submit one spec; yields its events through ``job-done``."""
        reader, writer = await self._connect()
        try:
            await send_frame(
                writer, SubmitRequest(spec=spec.to_dict(), token=self.token)
            )
            async for event in self._events(reader):
                yield event
                if event.kind in ("job-done", "error"):
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def cancel(self, job_id: str) -> bool:
        """Request cancellation of a job by id; True if it was live."""
        event = await self._round_trip(CancelRequest(job=job_id, token=self.token))
        return bool(event.get("ok"))

    async def ping(self) -> Event:
        """Liveness check; returns the server's ``pong`` counters."""
        return await self._round_trip(PingRequest(token=self.token))

    async def metrics(self) -> Event:
        """The server's metrics snapshot (the ``metrics`` op)."""
        return await self._round_trip(MetricsRequest(token=self.token))

    async def watch(self, kinds: list[str] | None = None) -> AsyncIterator[Event]:
        """Stream the service-wide event feed (the ``watch`` op).

        Yields the initial ``watching`` acknowledgement, then every
        service event (optionally filtered to ``kinds``) until the
        server shuts down — a shutdown ends the iterator rather than
        raising.  Break out of the loop to hang up.
        """
        reader, writer = await self._connect()
        try:
            await send_frame(
                writer,
                WatchRequest(
                    kinds=tuple(kinds) if kinds is not None else None,
                    token=self.token,
                ),
            )
            async for event in self._events(reader):
                yield event
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    async def _connect(self):
        try:
            return await open_endpoint(self.endpoint)
        except (ConnectionRefusedError, FileNotFoundError, OSError) as exc:
            raise ConfigurationError(
                f"no sweep service listening on {self.endpoint} "
                f"(start one with: python -m repro serve --socket "
                f"{self.socket_path})"
            ) from exc

    async def _round_trip(self, request: Request) -> Event:
        reader, writer = await self._connect()
        try:
            await send_frame(writer, request)
            line = await self._readline(reader)
            if not line:
                raise ConfigurationError("sweep service closed the connection")
            return self._parse_frame(line)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _readline(self, reader: asyncio.StreamReader) -> bytes:
        """One frame line, bounded by ``timeout_s`` when it is set."""
        if self.timeout_s is None:
            return await reader.readline()
        try:
            return await asyncio.wait_for(reader.readline(), self.timeout_s)
        except asyncio.TimeoutError:
            raise ServiceTimeoutError(
                f"no frame from the sweep service within {self.timeout_s:g}s"
            ) from None

    @staticmethod
    def _parse_frame(line: bytes) -> Event:
        """Decode one frame; refusals and damage raise typed errors."""
        try:
            event = Event.from_json(line)
        except ValueError as exc:
            raise ServiceProtocolError(
                f"sweep service sent an undecodable frame: {exc}"
            ) from None
        if event.kind in REFUSALS:
            refusal = decode_frame(
                REFUSALS, {"event": event.kind, **event.data}, ServiceProtocolError
            )
            raise _REFUSAL_ERRORS[type(refusal)](refusal)
        return event

    async def _events(self, reader: asyncio.StreamReader) -> AsyncIterator[Event]:
        while True:
            line = await self._readline(reader)
            if not line:
                return
            yield self._parse_frame(line)


def submit_and_stream(
    socket_path: str | os.PathLike,
    spec: SweepSpec,
    events_out: IO[str] | None = None,
    token: str | None = None,
    timeout_s: float | None = None,
) -> Event:
    """Submit a spec and stream its progress (the CLI ``submit`` body).

    Every event is mirrored as one JSONL line to ``events_out`` (default
    stderr); returns the terminal event (``job-done``, or the server's
    ``error``).  Refusals raise the client's typed exceptions.
    """
    err = events_out if events_out is not None else sys.stderr

    async def run() -> Event:
        client = ServiceClient(socket_path, token=token, timeout_s=timeout_s)
        last: Event | None = None
        async for event in client.submit(spec):
            print(event.to_json(), file=err, flush=True)
            last = event
        if last is None or last.kind not in ("job-done", "error"):
            raise ConfigurationError(
                "sweep service closed the stream before job-done"
            )
        return last

    return asyncio.run(run())


def fetch_metrics(
    socket_path: str | os.PathLike,
    token: str | None = None,
    timeout_s: float | None = None,
) -> dict:
    """One-shot metrics snapshot from a running service (CLI ``metrics``).

    Returns the ``snapshot`` payload of the server's ``metrics`` event —
    ``{"metrics": [...]}`` in the registry's deterministic order — or
    raises :class:`~repro.errors.ConfigurationError` if nothing is
    listening (same contract as the other one-shot ops).
    """

    async def run() -> dict:
        client = ServiceClient(socket_path, token=token, timeout_s=timeout_s)
        event = await client.metrics()
        if event.kind != "metrics":
            raise ConfigurationError(
                f"service answered {event.kind!r}: {event.get('message')}"
            )
        snapshot = event.get("snapshot")
        return snapshot if isinstance(snapshot, dict) else {"metrics": []}

    return asyncio.run(run())


def watch_and_stream(
    socket_path: str | os.PathLike,
    events_out: IO[str] | None = None,
    kinds: list[str] | None = None,
    limit: int | None = None,
    token: str | None = None,
    timeout_s: float | None = None,
) -> int:
    """Mirror the service's event feed as JSONL (the CLI ``watch`` body).

    Prints one line per event to ``events_out`` (default stdout — watch
    output *is* the result) until the server shuts down, the connection
    drops, or ``limit`` events have been seen.  Returns the number of
    events printed (excluding the ``watching`` acknowledgement).  Note
    ``timeout_s`` bounds *every* frame read — an idle feed will trip it.
    """
    out = events_out if events_out is not None else sys.stdout

    async def run() -> int:
        client = ServiceClient(socket_path, token=token, timeout_s=timeout_s)
        seen = 0
        async for event in client.watch(kinds=kinds):
            print(event.to_json(), file=out, flush=True)
            if event.kind != "watching":
                seen += 1
            if limit is not None and seen >= limit:
                break
        return seen

    return asyncio.run(run())
