"""Cluster-fabric smoke test.

One small, real sweep (the same Figure 11 d-sweep slice the executor
smoke test uses) runs through the full distributed stack: a
:class:`~repro.cluster.coordinator.Coordinator` bound to loopback TCP,
two in-process :class:`~repro.cluster.worker.ClusterWorker` clients
speaking the genuine JSONL wire protocol, shard dispatch, and the
idempotent merge.  The resulting table must agree bit-for-bit with the
``SerialExecutor`` reference — the fabric's core guarantee.

The fault-injection paths (worker kill, heartbeat eviction, duplicate
delivery) live in ``tests/test_cluster.py``.

The run is also pinned against the deterministic-replay fixture in
``tests/fixtures/replay/`` (results only — cluster wall-clock timing is
nondeterministic, so the metrics snapshot is not captured here): a
mismatch means a cross-machine or cross-version determinism regression.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.analysis.bits import alternating_bits
from repro.channels.base import ChannelConfig
from repro.channels.eviction import MtEvictionChannel
from repro.cluster import DistributedExecutor
from repro.exec import SerialExecutor
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.sweep import ParameterSweep, SweepPoint

GRID = {"d": [1, 2, 4, 6]}
BASE_SEED = 1100


def _load_replay():
    """Load ``tests/_replay.py`` by path (benchmarks/ is not a package
    sibling of tests/, so a plain import cannot reach it)."""
    path = Path(__file__).resolve().parent.parent / "tests" / "_replay.py"
    spec = importlib.util.spec_from_file_location("_replay", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_point(point: SweepPoint) -> dict:
    machine = Machine(GOLD_6226, seed=point.seed)
    channel = MtEvictionChannel(
        machine, ChannelConfig(d=point["d"], p=1000, q=100)
    )
    result = channel.transmit(alternating_bits(16))
    return {"kbps": result.kbps, "error": result.error_rate}


def make_sweep() -> ParameterSweep:
    return ParameterSweep(run_point, grid=GRID, base_seed=BASE_SEED)


def test_smoke_cluster_matches_serial():
    serial = make_sweep().run(SerialExecutor())

    distributed_sweep = make_sweep()
    executor = DistributedExecutor(workers=2, shard_size=2)
    distributed = distributed_sweep.run(executor)

    assert distributed == serial
    assert distributed_sweep.last_stats.executor == "distributed"
    assert distributed_sweep.last_stats.jobs == 2

    # The run really went through the cluster, not the fallback path.
    assert executor.last_run is not None
    assert executor.last_run["fallback"] is False
    assert executor.last_run["workers"] == 2
    assert executor.last_run["shards"] == 2
    assert executor.last_run["duplicates"] == 0
    assert executor.address is not None and executor.address.is_tcp

    # Pin the merged table against the committed replay fixture.
    replay = _load_replay()
    replay.assert_replay("smoke_cluster_d_sweep", distributed)
