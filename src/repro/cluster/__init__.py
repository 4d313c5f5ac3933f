"""Distributed sweep fabric: coordinator, workers, sharding, transport.

The cluster layer turns a single-machine sweep into a multi-worker
(and, over TCP, multi-host) run while preserving the repository's core
guarantee: **byte-identical tables**.  The same derived seeds travel
with every point, results merge idempotently by point index, and JSON
round-trips metrics bit-exactly, so ``DistributedExecutor`` output
matches ``SerialExecutor`` output for any grid — regardless of worker
count, worker deaths, retries or steals along the way.

Entry points:

* :class:`DistributedExecutor` — drop-in :class:`~repro.exec.base.Executor`
  (``python -m repro sweep --workers N``);
* :func:`make_executor` — the cluster-or-local choice for a ``jobs`` /
  ``workers`` / ``bind`` triple;
* :class:`ClusterWorker` / ``python -m repro worker`` — a compute node;
* :class:`Coordinator` — the per-run shard dispatcher, for embedding.

See ``docs/distributed.md`` for topology, fault-tolerance semantics and
the security caveats of TCP transport.
"""

from repro.cluster.coordinator import Coordinator
from repro.cluster.executor import DistributedExecutor, make_executor
from repro.cluster.protocol import PROTOCOL_VERSION, ClusterError, ClusterProtocolError
from repro.cluster.shards import Shard, locality_key, plan_shards
from repro.cluster.worker import ClusterWorker, run_worker

__all__ = [
    "PROTOCOL_VERSION",
    "ClusterError",
    "ClusterProtocolError",
    "ClusterWorker",
    "Coordinator",
    "DistributedExecutor",
    "Shard",
    "locality_key",
    "make_executor",
    "plan_shards",
    "run_worker",
]
