"""Typed frames of the sweep service's socket protocol.

Every request a client sends is one of the five ``"op"`` frames below,
and the server's two refusals are ``"event"`` frames.  The server and
the client decode them strictly at the socket with
:func:`repro.wire.decode_frame`, so an unknown op, a misspelt key or a
wrong-typed value is answered with one ``error`` event naming it.  The
rest of the server's answers are free-form
:class:`~repro.service.events.Event` lines.

Every request may carry a ``token``; the server authenticates it
before it dispatches the op.  An optional field that is ``None`` is
left out of the frame, so a request without a token has no ``token``
key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.wire import Frame, frame_table

__all__ = [
    "CancelRequest",
    "Deny",
    "MetricsRequest",
    "PingRequest",
    "QuotaExceeded",
    "REFUSALS",
    "REQUESTS",
    "Request",
    "SubmitRequest",
    "WatchRequest",
]


class Request(Frame):
    """A client -> server frame."""

    key = "op"


@dataclass(frozen=True)
class SubmitRequest(Request):
    """Queue one sweep or scenario spec; answers its events to ``job-done``."""

    tag = "submit"
    #: Plain JSON of the spec, checked by :func:`~repro.service.spec.load_spec`.
    spec: Mapping[str, object]
    token: str | None = None


@dataclass(frozen=True)
class CancelRequest(Request):
    """Cancel a queued or running job; answers a ``cancel`` event."""

    tag = "cancel"
    job: str
    token: str | None = None


@dataclass(frozen=True)
class PingRequest(Request):
    """Liveness check; answers ``pong`` with queue counters."""

    tag = "ping"
    token: str | None = None


@dataclass(frozen=True)
class MetricsRequest(Request):
    """Snapshot the metrics registry; answers a ``metrics`` event."""

    tag = "metrics"
    token: str | None = None


@dataclass(frozen=True)
class WatchRequest(Request):
    """Subscribe to the event feed, optionally only these event kinds."""

    tag = "watch"
    kinds: tuple[str, ...] | None = None
    token: str | None = None


class Refusal(Frame):
    """A server -> client refusal; the client raises a typed error."""

    key = "event"


@dataclass(frozen=True)
class Deny(Refusal):
    """Authentication refused (``unauthenticated``, ``unknown-token``,
    ``not-owner``); the client raises ``ServiceDeniedError``."""

    tag = "deny"
    reason: str
    message: str


@dataclass(frozen=True)
class QuotaExceeded(Refusal):
    """Submission over the account's quota; the client raises
    ``ServiceQuotaError``.  ``retry_after_s`` is set for rate denials."""

    tag = "quota-exceeded"
    reason: str
    message: str
    retry_after_s: float | None = None


#: The frames a server accepts.
REQUESTS = frame_table(
    SubmitRequest, CancelRequest, PingRequest, MetricsRequest, WatchRequest
)
#: The frames a client raises on.
REFUSALS = frame_table(Deny, QuotaExceeded)
