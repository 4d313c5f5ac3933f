"""Cluster worker: connect, register, compute shards, stream results.

A :class:`ClusterWorker` is one compute node of the fabric.  It dials
the coordinator (TCP or Unix socket), registers under a requested name
(the coordinator may rename it to keep names unique), then loops:
receive a shard, compute its points, stream each ``point-result`` back
the moment it finishes, close with ``shard-done``.  A heartbeat task
pings the coordinator every ``heartbeat_interval`` seconds — including
*while computing*, because the actual point work runs in a worker
thread (via the same :class:`~repro.exec.parallel.ParallelExecutor`
machinery a local run uses when ``jobs > 1``), so a busy worker is
never mistaken for a dead one.

Workers may carry their own on-disk
:class:`~repro.exec.cache.ResultCache`: points already present locally
are reported back as ``cached`` without recomputation, which is what
makes the coordinator's locality-aware shard assignment pay off across
runs.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Mapping, Sequence

from repro.cluster.protocol import (
    COORDINATOR_FRAMES,
    PROTOCOL_VERSION,
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
    decode_factory,
    decode_points,
    read_frame,
)
from repro.errors import ConfigurationError
from repro.exec.base import Executor
from repro.exec.cache import ResultCache
from repro.exec.canonical import callable_fingerprint
from repro.exec.parallel import local_executor
from repro.obs import Counter, MetricsRegistry, get_registry
from repro.service.endpoints import Endpoint, open_endpoint, parse_endpoint
from repro.sweep import SweepPoint
from repro.wire import frame_table, send_frame

__all__ = ["ClusterWorker", "run_worker"]

#: The coordinator's answer to ``register``: welcome, or a refusal.
_HELLO = frame_table(Welcome, Shutdown)


class ClusterWorker:
    """One compute node: dials a coordinator and works shards to death.

    Parameters
    ----------
    connect:
        Coordinator endpoint (``tcp://host:port``, ``host:port``, or a
        Unix socket path).
    name:
        Requested worker name; the coordinator uniquifies clashes.
    jobs:
        Local process-pool width per shard (``1`` computes in-line in
        the worker thread, ``> 1`` fans out like ``sweep --jobs``).
    cache_dir:
        Optional per-worker :class:`ResultCache` directory; locally
        cached points are answered without recomputation.
    heartbeat_interval:
        Seconds between liveness pings.  Keep well under the
        coordinator's ``heartbeat_timeout``.
    connect_attempts / connect_delay_s:
        Dial retries — workers often start before their coordinator.
    registry:
        The :class:`~repro.obs.MetricsRegistry` this worker's tallies
        live on; defaults to the process registry.  Give each in-process
        worker of a test or executor its own so shipped snapshots stay
        per-worker.
    ship_metrics:
        Ship this registry's snapshot in every ``shard-done`` and in the
        ``goodbye`` sent on shutdown, for the coordinator's fleet-wide
        metrics merge.
    """

    def __init__(
        self,
        connect: Endpoint | str,
        *,
        name: str | None = None,
        jobs: int = 1,
        cache_dir: str | None = None,
        heartbeat_interval: float = 2.0,
        connect_attempts: int = 25,
        connect_delay_s: float = 0.2,
        registry: MetricsRegistry | None = None,
        ship_metrics: bool = False,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        self.endpoint = (
            parse_endpoint(connect) if isinstance(connect, str) else connect
        )
        self.name = name
        self.jobs = int(jobs)
        self.heartbeat_interval = float(heartbeat_interval)
        self.connect_attempts = int(connect_attempts)
        self.connect_delay_s = float(connect_delay_s)
        self._cache = ResultCache(cache_dir) if cache_dir else None
        self._executor: Executor = local_executor(self.jobs)
        self._send_lock = asyncio.Lock()
        # Tallies live on the process registry, tagged with the final
        # worker name — which the coordinator only confirms at welcome,
        # so the instruments bind then.  The public attributes are views
        # (deltas since binding) and read 0 until registration.
        self._registry = registry if registry is not None else get_registry()
        self.ship_metrics = bool(ship_metrics)
        self._c_shards: Counter | None = None
        self._c_points: Counter | None = None
        self._c_hits: Counter | None = None
        self._b_shards = 0
        self._b_points = 0
        self._b_hits = 0

    def _bind_instruments(self) -> None:
        """Create the per-worker counters once the name is final."""
        self._c_shards = self._registry.counter(
            "worker.shards_done", worker=self.name
        )
        self._c_points = self._registry.counter(
            "worker.points_done", worker=self.name
        )
        self._c_hits = self._registry.counter(
            "worker.cache_hits", worker=self.name
        )
        self._b_shards = self._c_shards.value
        self._b_points = self._c_points.value
        self._b_hits = self._c_hits.value

    @property
    def shards_done(self) -> int:
        """Shards completed; a view over ``worker.shards_done``."""
        return 0 if self._c_shards is None else self._c_shards.value - self._b_shards

    @property
    def points_done(self) -> int:
        """Point results reported; a view over ``worker.points_done``."""
        return 0 if self._c_points is None else self._c_points.value - self._b_points

    @property
    def cache_hits(self) -> int:
        """Points served from the local cache; a view over ``worker.cache_hits``."""
        return 0 if self._c_hits is None else self._c_hits.value - self._b_hits

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Serve shards until the coordinator says ``shutdown`` (or hangs up)."""
        reader, writer = await self._connect()
        heartbeat: asyncio.Task | None = None
        try:
            await self._send(
                writer,
                Register(worker=self.name, slots=self.jobs, version=PROTOCOL_VERSION),
            )
            welcome = await read_frame(reader, _HELLO)
            if not isinstance(welcome, Welcome):
                return  # coordinator refused us (e.g. version mismatch)
            if welcome.version != PROTOCOL_VERSION:
                # The coordinator vets our version on register, but the
                # check must hold in both directions: a newer
                # coordinator welcoming an older worker would otherwise
                # fail later, mid-shard, with an opaque frame error.
                raise ClusterProtocolError(
                    f"coordinator speaks protocol {welcome.version!r}, "
                    f"this worker speaks {PROTOCOL_VERSION}"
                )
            self.name = welcome.worker
            self._bind_instruments()
            heartbeat = asyncio.get_running_loop().create_task(
                self._heartbeat(writer), name=f"heartbeat-{self.name}"
            )
            while (frame := await read_frame(reader, COORDINATOR_FRAMES)) is not None:
                await self._HANDLERS[type(frame)](self, writer, frame)
                if isinstance(frame, Shutdown):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # coordinator went away; nothing left to serve
        finally:
            if heartbeat is not None:
                heartbeat.cancel()
                try:
                    await heartbeat
                except asyncio.CancelledError:
                    pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    async def _connect(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        last: OSError | None = None
        for _ in range(max(1, self.connect_attempts)):
            try:
                return await open_endpoint(self.endpoint)
            except OSError as exc:
                last = exc
                await asyncio.sleep(self.connect_delay_s)
        raise ClusterError(
            f"could not reach coordinator at {self.endpoint}: {last}"
        )

    async def _send(self, writer: asyncio.StreamWriter, frame: ClusterFrame) -> None:
        # One lock per connection: the heartbeat task and the shard loop
        # both write, and frames must never interleave mid-line.
        async with self._send_lock:
            await send_frame(writer, frame)

    async def _heartbeat(self, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                await asyncio.sleep(self.heartbeat_interval)
                await self._send(writer, Heartbeat(worker=self.name))
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            return  # connection is gone; the main loop will notice too

    async def _on_shutdown(self, writer: asyncio.StreamWriter, frame: Shutdown) -> None:
        """Final frame before honouring ``shutdown``: the parting snapshot.

        Best-effort — a coordinator tearing the connection down right
        after its ``shutdown`` must not turn the clean exit into a
        traceback.
        """
        goodbye = Goodbye(worker=self.name, snapshot=self._shipped_snapshot())
        try:
            await self._send(writer, goodbye)
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass

    # ------------------------------------------------------------------
    def _shipped_snapshot(self) -> dict | None:
        return self._registry.snapshot() if self.ship_metrics else None

    async def _run_shard(self, writer: asyncio.StreamWriter, frame: ShardWork) -> None:
        shard_id = frame.shard
        try:
            factory = decode_factory(frame.factory)
            pending = decode_points(frame.points)
        except ClusterProtocolError as exc:
            await self._send(
                writer, ShardError(shard=shard_id, message=str(exc))
            )
            return
        try:
            fingerprint = (
                callable_fingerprint(factory) if self._cache is not None else ""
            )
            to_compute: list[tuple[int, SweepPoint]] = []
            for index, point in pending:
                metrics = (
                    await asyncio.to_thread(self._cache.load, point, fingerprint)
                    if self._cache is not None
                    else None
                )
                if metrics is not None:
                    assert self._c_hits is not None  # bound at welcome
                    self._c_hits.inc()
                    await self._report(writer, shard_id, index, metrics, 0.0, True)
                else:
                    to_compute.append((index, point))
            points_by_index = dict(to_compute)
            async for index, metrics, elapsed in self._stream(to_compute, factory):
                metrics = dict(metrics)
                if self._cache is not None:
                    await asyncio.to_thread(
                        self._cache.store, points_by_index[index], fingerprint,
                        metrics,
                    )
                await self._report(writer, shard_id, index, metrics, elapsed, False)
            assert self._c_shards is not None  # bound at welcome
            self._c_shards.inc()
            # Counted *before* snapshotting so the shipped totals
            # include the shard they close.
            await self._send(
                writer,
                ShardDone(shard=shard_id, snapshot=self._shipped_snapshot()),
            )
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            raise
        except Exception as exc:  # the factory failed: report, stay alive
            await self._send(
                writer,
                ShardError(shard=shard_id, message=f"{type(exc).__name__}: {exc}"),
            )

    async def _report(
        self,
        writer: asyncio.StreamWriter,
        shard_id: int,
        index: int,
        metrics: Mapping[str, float],
        elapsed_s: float,
        cached: bool,
    ) -> None:
        assert self._c_points is not None  # bound at welcome
        self._c_points.inc()
        await self._send(
            writer,
            PointResult(
                shard=shard_id,
                index=index,
                metrics=dict(metrics),
                elapsed_s=elapsed_s,
                cached=cached,
            ),
        )

    async def _stream(
        self,
        pending: Sequence[tuple[int, SweepPoint]],
        factory: Callable[[SweepPoint], Mapping[str, float]],
    ):
        """Bridge the executor's synchronous completion stream onto the loop.

        The executor runs in a worker thread (so heartbeats keep flowing
        during long points) and hands each finished point across via an
        asyncio queue the moment it completes.
        """
        if not pending:
            return
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        def pump() -> None:
            # Worker thread: the only place the synchronous stream runs.
            try:
                for item in self._executor.compute_stream(pending, factory):
                    loop.call_soon_threadsafe(queue.put_nowait, ("item", item))
            except BaseException as exc:
                loop.call_soon_threadsafe(queue.put_nowait, ("error", exc))
                return
            loop.call_soon_threadsafe(queue.put_nowait, ("done", None))

        pump_task = loop.run_in_executor(None, pump)
        try:
            while True:
                kind, payload = await queue.get()
                if kind == "done":
                    break
                if kind == "error":
                    raise payload
                yield payload
        finally:
            await pump_task

    #: One handler per frame a worker accepts after welcome
    #: (``tests/test_frames.py`` holds the keys to
    #: :data:`COORDINATOR_FRAMES`).
    _HANDLERS = {ShardWork: _run_shard, Shutdown: _on_shutdown}


def run_worker(connect: str, **kwargs) -> None:
    """Blocking convenience wrapper: ``asyncio.run`` one worker (the CLI verb)."""
    asyncio.run(ClusterWorker(connect, **kwargs).run())
