"""Observability smoke test.

One serial and one distributed-loopback sweep run under a fresh
:class:`~repro.obs.MetricsRegistry`, and the resulting snapshot is
written to ``benchmarks/results/smoke_obs_metrics.json``.  CI asserts
that file is non-empty and uploads it as a build artifact, so every
pipeline run leaves behind a machine-readable record of what the
fabric actually did (points computed, shards dispatched, workers
joined) — and a regression that silently stops recording metrics fails
here, not in production triage.
"""

from __future__ import annotations

import json

from _harness import RESULTS_DIR, save_metrics_snapshot

from repro.analysis.bits import alternating_bits
from repro.channels.base import ChannelConfig
from repro.channels.eviction import MtEvictionChannel
from repro.cluster import DistributedExecutor
from repro.exec import SerialExecutor
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.obs import MetricsRegistry, use_registry
from repro.sweep import ParameterSweep, SweepPoint

GRID = {"d": [2, 4]}
BASE_SEED = 1100


def run_point(point: SweepPoint) -> dict:
    machine = Machine(GOLD_6226, seed=point.seed)
    channel = MtEvictionChannel(
        machine, ChannelConfig(d=point["d"], p=1000, q=100)
    )
    result = channel.transmit(alternating_bits(16))
    return {"kbps": result.kbps, "error": result.error_rate}


def make_sweep() -> ParameterSweep:
    return ParameterSweep(run_point, grid=GRID, base_seed=BASE_SEED)


def test_smoke_obs_snapshot_covers_the_stack():
    registry = MetricsRegistry()
    with use_registry(registry):
        serial = make_sweep().run(SerialExecutor())
        distributed = make_sweep().run(
            DistributedExecutor(workers=2, shard_size=1)
        )
        path = save_metrics_snapshot("smoke_obs_metrics")

    assert distributed == serial
    assert str(path).startswith(RESULTS_DIR)

    with open(path) as handle:
        snapshot = json.load(handle)
    metrics = snapshot["metrics"]
    assert metrics, "smoke sweep recorded no metrics at all"

    # Both execution tiers left their instruments behind.
    names = {entry["name"] for entry in metrics}
    assert "exec.points" in names
    assert "exec.point_latency_s" in names
    assert "cluster.workers_joined" in names
    assert "cluster.points_done" in names
    assert "worker.points_done" in names
    assert "shard.dispatch" in names

    # And the counts describe this run: 2 points merged by the
    # distributed run, at least 2 computed serially (the reference run,
    # plus the cluster workers' in-process serial executors), dispatched
    # across 2 joined workers.
    by_identity = {
        (entry["name"], tuple(sorted(entry["tags"].items()))): entry
        for entry in metrics
    }
    dist_points = by_identity[("exec.points", (("executor", "distributed"),))]
    assert dist_points["value"] == len(GRID["d"])
    serial_points = by_identity[("exec.points", (("executor", "serial"),))]
    assert serial_points["value"] >= len(GRID["d"])
    joined = by_identity[("cluster.workers_joined", ())]
    assert joined["value"] == 2
