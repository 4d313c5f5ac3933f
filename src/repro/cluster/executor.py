"""``DistributedExecutor``: the cluster fabric behind the ``Executor`` API.

This is the piece that makes distribution invisible to the rest of the
repository: it subclasses :class:`~repro.exec.base.Executor`, so
``ParameterSweep.run()``, the sweep service's scheduler, the benchmark
harness and the CLI all drive it exactly like the serial or parallel
executors — same cache handling, same ordered reassembly, same stats.

Per run it stands up a :class:`~repro.cluster.coordinator.Coordinator`
on ``bind`` (loopback TCP by default), optionally launches ``workers``
in-process :class:`~repro.cluster.worker.ClusterWorker` clients against
the *real* socket (so even the single-machine path exercises the full
wire protocol), and waits for the merged results.  External workers
started with ``python -m repro worker --connect ...`` may join the same
address and simply enlarge the pool.

Degradation is graceful by design: if **no** worker registers within
``wait_workers_s``, the run silently falls back to
:func:`~repro.exec.parallel.local_executor` — a sweep never fails just
because a cluster did not materialise.  Set ``fallback=False`` to make
that a hard :class:`ClusterError` instead.

:func:`make_executor` is the one place that chooses between this
executor and a local one, for the CLI and the benchmark harness alike.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Iterable, Mapping, Sequence

from repro.cluster.coordinator import Coordinator
from repro.cluster.protocol import ClusterError
from repro.cluster.worker import ClusterWorker
from repro.errors import ConfigurationError
from repro.exec.base import Executor
from repro.exec.parallel import local_executor
from repro.obs import MetricsRegistry
from repro.service.endpoints import Endpoint, parse_endpoint
from repro.service.events import Event
from repro.sweep import SweepPoint

__all__ = ["DistributedExecutor", "make_executor"]


class DistributedExecutor(Executor):
    """Shard a sweep across cluster workers; merge byte-identically.

    Parameters
    ----------
    workers:
        In-process workers to launch per run.  ``0`` relies entirely on
        external workers dialing ``bind`` — useful with a fixed TCP
        address and ``python -m repro worker`` on other hosts.
    bind:
        Coordinator endpoint: ``tcp://host:port`` (``port`` may be 0
        for an ephemeral pick), bare ``host:port``, or a Unix socket
        path.  ``None`` (the default) is loopback on an ephemeral port;
        see ``docs/distributed.md`` before binding anything wider.
    jobs:
        Process-pool width *inside each* in-process worker.
    shard_size:
        Max points per dispatched shard.
    wait_workers_s:
        How long to wait for the first registration before degrading.
    heartbeat_timeout / max_retries / retry_backoff_s / steal_after_s:
        Fault-tolerance knobs, forwarded to the coordinator.
    cache_dir:
        Optional per-worker result-cache directory for the in-process
        workers (the executor-level cache passed to :meth:`run` is
        independent and still applies first).
    fallback:
        ``False`` turns the no-workers degradation into a hard error.
    on_event:
        Optional callback for the coordinator's shard/worker events.
    """

    name = "distributed"

    def __init__(
        self,
        workers: int = 2,
        *,
        bind: str | None = None,
        jobs: int = 1,
        shard_size: int = 4,
        wait_workers_s: float = 10.0,
        heartbeat_interval: float | None = None,
        heartbeat_timeout: float = 10.0,
        max_retries: int = 3,
        retry_backoff_s: float = 0.5,
        steal_after_s: float | None = 30.0,
        cache_dir: str | None = None,
        fallback: bool = True,
        on_event: Callable[[Event], None] | None = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.workers = int(workers)
        self.bind = parse_endpoint("tcp://127.0.0.1:0" if bind is None else bind)
        self.worker_jobs = int(jobs)
        self.shard_size = int(shard_size)
        self.wait_workers_s = float(wait_workers_s)
        self.heartbeat_interval = (
            float(heartbeat_interval)
            if heartbeat_interval is not None
            else max(0.05, heartbeat_timeout / 4)
        )
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.steal_after_s = steal_after_s
        self.cache_dir = cache_dir
        self.fallback = bool(fallback)
        self.on_event = on_event
        #: Reported parallelism: every in-process worker times its pool.
        self.jobs = max(1, self.workers * self.worker_jobs)
        #: Actual bound address of the most recent run (ephemeral ports
        #: resolve here), and that run's fault-tolerance counters.
        self.address: Endpoint | None = None
        self.last_run: dict | None = None

    # ------------------------------------------------------------------
    def _compute(
        self,
        pending: Sequence[tuple[int, SweepPoint]],
        factory: Callable[[SweepPoint], Mapping[str, float]],
    ) -> Iterable[tuple[int, Mapping[str, float], float]]:
        if not pending:
            return []
        results = asyncio.run(self._run_cluster(list(pending), factory))
        if results is None:  # nobody registered: degrade to local compute
            if not self.fallback:
                raise ClusterError(
                    f"no workers registered at {self.address} within "
                    f"{self.wait_workers_s:.1f}s and fallback is disabled"
                )
            self.last_run = {"fallback": True, "workers": 0}
            return local_executor(self.jobs).compute_stream(pending, factory)
        return results

    async def _run_cluster(
        self,
        pending: list[tuple[int, SweepPoint]],
        factory: Callable[[SweepPoint], Mapping[str, float]],
    ) -> list[tuple[int, dict, float]] | None:
        coordinator = Coordinator(
            pending,
            factory,
            shard_size=self.shard_size,
            heartbeat_timeout=self.heartbeat_timeout,
            max_retries=self.max_retries,
            retry_backoff_s=self.retry_backoff_s,
            steal_after_s=self.steal_after_s,
            on_event=self.on_event,
        )
        self.address = await coordinator.start(self.bind)
        loop = asyncio.get_running_loop()
        worker_tasks = [
            loop.create_task(
                ClusterWorker(
                    self.address,
                    name=f"local-{i + 1}",
                    jobs=self.worker_jobs,
                    cache_dir=self.cache_dir,
                    heartbeat_interval=self.heartbeat_interval,
                    # Each in-process worker tallies on its own registry
                    # and ships snapshots over the wire, exactly like an
                    # external worker — the coordinator's fleet merge
                    # lands the totals back on the process registry.
                    registry=MetricsRegistry(),
                    ship_metrics=True,
                ).run(),
                name=f"cluster-worker-{i + 1}",
            )
            for i in range(self.workers)
        ]
        try:
            if not await coordinator.wait_for_workers(self.wait_workers_s):
                return None
            results = await coordinator.results()
            self.last_run = {
                "fallback": False,
                "workers": len(worker_tasks) or len(coordinator.workers),
                "shards": coordinator.shard_count,
                "redispatches": coordinator.redispatches,
                "steals": coordinator.steals,
                "duplicates": coordinator.duplicate_results,
                "remote_cache_hits": coordinator.remote_cache_hits,
                "address": str(self.address),
            }
            return results
        finally:
            await coordinator.stop("run complete")
            for task in worker_tasks:
                task.cancel()
            await asyncio.gather(*worker_tasks, return_exceptions=True)


def make_executor(
    jobs: int = 1,
    workers: int = 0,
    bind: str | None = None,
    **options,
) -> Executor:
    """A :class:`DistributedExecutor` for non-zero ``workers`` or any
    explicit ``bind`` (``workers=0`` then waits for external workers),
    else :func:`~repro.exec.parallel.local_executor`; ``options``
    (``shard_size``, ``on_event``, ...) apply to the distributed one."""
    if workers or bind is not None:
        return DistributedExecutor(workers, bind=bind, jobs=jobs, **options)
    return local_executor(jobs)
