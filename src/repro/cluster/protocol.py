"""Wire protocol of the cluster fabric: typed JSONL frames over a socket.

Coordinator and workers exchange newline-delimited JSON objects, one
frame per line, over TCP or a Unix socket (the same framing as the
sweep service's front door).  Each frame kind is a frozen dataclass
below, keyed by ``"type"``; both sides decode every line strictly with
:func:`read_frame`, so a malformed frame raises
:class:`ClusterProtocolError` on the side that received it.

* worker -> coordinator: :class:`Register`, then any of
  :data:`WORKER_FRAMES` — :class:`Heartbeat`, :class:`PointResult`,
  :class:`ShardDone`, :class:`ShardError`, :class:`Goodbye`;
* coordinator -> worker: :class:`Welcome` (or a refusing
  :class:`Shutdown`), then any of :data:`COORDINATOR_FRAMES` —
  :class:`ShardWork`, :class:`Shutdown`.

Changing a frame class changes the protocol: bump
:data:`PROTOCOL_VERSION` when the bytes on the wire change
incompatibly.

An optional field that is ``None`` is left out of the line.  Sweep points
and the factory cross the wire as base64-encoded pickles — the exact
serialisation contract :class:`~repro.exec.parallel.ParallelExecutor`
already imposes on factories (module-level functions or
``functools.partial``), extended from process boundaries to host
boundaries.  Pickle is executable by construction, so the transport is
only as trustworthy as the peers: bind coordinators to loopback or a
trusted network, never the open internet (``docs/distributed.md``).
"""

from __future__ import annotations

import asyncio
import base64
import pickle
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.errors import ReproError
from repro.sweep import SweepPoint
from repro.wire import Frame, decode_frame, frame_table

__all__ = [
    "PROTOCOL_VERSION",
    "COORDINATOR_FRAMES",
    "ClusterError",
    "ClusterFrame",
    "ClusterProtocolError",
    "Goodbye",
    "Heartbeat",
    "PointResult",
    "Register",
    "ShardDone",
    "ShardError",
    "ShardWork",
    "Shutdown",
    "WORKER_FRAMES",
    "Welcome",
    "read_frame",
    "encode_obj",
    "decode_obj",
    "encode_points",
    "decode_points",
    "decode_factory",
]

#: Bump when the message vocabulary changes incompatibly; register /
#: welcome carry it so mismatched peers fail fast instead of mid-run.
#: v2: workers answer ``shutdown`` with a ``goodbye`` frame (optionally
#: carrying a metrics snapshot, as ``shard-done`` now may too).
PROTOCOL_VERSION = 2


class ClusterError(ReproError):
    """A distributed run could not complete (no workers, retries spent)."""


class ClusterProtocolError(ClusterError):
    """A peer sent a malformed or unexpected message."""


class ClusterFrame(Frame):
    """A frame of the cluster fabric."""

    key = "type"


# -- worker -> coordinator ----------------------------------------------
@dataclass(frozen=True)
class Register(ClusterFrame):
    """First frame on a worker connection; answered by :class:`Welcome`
    (the name may come back uniquified) or a refusing :class:`Shutdown`."""

    tag = "register"
    #: Requested name; ``None`` lets the coordinator pick one.
    worker: str | None
    #: The worker's local pool width (its ``jobs=``).
    slots: int
    version: int


@dataclass(frozen=True)
class Heartbeat(ClusterFrame):
    """Liveness, every ``heartbeat_interval`` even while computing."""

    tag = "heartbeat"
    #: For humans tailing the wire; liveness is per connection.
    worker: str


@dataclass(frozen=True)
class PointResult(ClusterFrame):
    """One finished (or locally cached) point, sent the moment it is done."""

    tag = "point-result"
    shard: int
    index: int
    #: The factory's metrics exactly as computed (ints stay ints).
    metrics: Mapping[str, object]
    elapsed_s: float
    cached: bool


@dataclass(frozen=True)
class ShardDone(ClusterFrame):
    """Every point of the shard was reported; optionally the worker's
    cumulative metrics-registry snapshot for the fleet merge."""

    tag = "shard-done"
    shard: int
    snapshot: Mapping[str, object] | None = None


@dataclass(frozen=True)
class ShardError(ClusterFrame):
    """The shard failed (undecodable, or the factory raised); the
    coordinator retries it elsewhere."""

    tag = "shard-error"
    shard: int
    message: str


@dataclass(frozen=True)
class Goodbye(ClusterFrame):
    """The worker honours :class:`Shutdown`; optionally its parting
    metrics-registry snapshot."""

    tag = "goodbye"
    #: For humans tailing the wire; the coordinator knows the connection.
    worker: str
    snapshot: Mapping[str, object] | None = None


# -- coordinator -> worker ----------------------------------------------
@dataclass(frozen=True)
class Welcome(ClusterFrame):
    """Registration accepted: the final worker name and the
    coordinator's protocol version."""

    tag = "welcome"
    worker: str
    version: int


@dataclass(frozen=True)
class ShardWork(ClusterFrame):
    """One work unit: compute these points with this factory."""

    tag = "shard"
    shard: int
    #: :func:`encode_obj` of the factory; see :func:`decode_factory`.
    factory: str
    #: ``[[index, encode_obj(point)], ...]``; see :func:`decode_points`.
    points: object


@dataclass(frozen=True)
class Shutdown(ClusterFrame):
    """The run is over, or the registration was refused; the worker
    answers :class:`Goodbye` and disconnects."""

    tag = "shutdown"
    #: For humans tailing the wire.
    reason: str


#: What a coordinator accepts after :class:`Register`.
WORKER_FRAMES = frame_table(Heartbeat, PointResult, ShardDone, ShardError, Goodbye)
#: What a worker accepts after :class:`Welcome`.
COORDINATOR_FRAMES = frame_table(ShardWork, Shutdown)


async def read_frame(
    reader: asyncio.StreamReader, table: Mapping[str, type[ClusterFrame]]
) -> ClusterFrame | None:
    """Read and strictly decode one frame; ``None`` means the peer closed.

    Anything but one of ``table``'s frames raises
    :class:`ClusterProtocolError`.
    """
    line = await reader.readline()
    if not line:
        return None
    return decode_frame(table, line, ClusterProtocolError)


def encode_obj(obj: object) -> str:
    """Pickle + base64: how factories and points ride inside JSON."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def decode_obj(text: str) -> object:
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as exc:  # corrupt payload: a protocol-level failure
        raise ClusterProtocolError(f"undecodable payload: {exc}") from exc


def encode_points(pending: Sequence[tuple[int, SweepPoint]]) -> list[list]:
    """``[[index, b64(point)], ...]`` for one shard message."""
    return [[int(index), encode_obj(point)] for index, point in pending]


def decode_points(payload: object) -> list[tuple[int, SweepPoint]]:
    if not isinstance(payload, list):
        raise ClusterProtocolError(f"shard points must be a list: {payload!r}")
    pending: list[tuple[int, SweepPoint]] = []
    for item in payload:
        if not isinstance(item, list) or len(item) != 2:
            raise ClusterProtocolError(f"bad shard point entry: {item!r}")
        index, encoded = item
        if not isinstance(index, int) or isinstance(index, bool):
            raise ClusterProtocolError(f"bad shard point index: {index!r}")
        point = decode_obj(encoded)
        if not isinstance(point, SweepPoint):
            raise ClusterProtocolError(
                f"shard point {index} decoded to {type(point).__name__}"
            )
        pending.append((index, point))
    return pending


def decode_factory(payload: str) -> Callable:
    factory = decode_obj(payload)
    if not callable(factory):
        raise ClusterProtocolError(
            f"shard factory decoded to non-callable {type(factory).__name__}"
        )
    return factory
