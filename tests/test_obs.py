"""Tests for the observability layer (``repro.obs``).

Ordered by the claims that matter most:

* **determinism** — snapshots are byte-stable: identity-sorted
  instruments, fixed histogram edges, and (with a
  :class:`~repro.obs.ManualClock`) two runs of the same seeded sweep
  serialize to identical bytes — the replay harness's foundation;
* **views, not bookkeeping** — ``ExecutionStats`` and the service's
  counters are deltas over registry instruments, so the metrics verb
  and the stats line can never disagree;
* **coverage** — after a loopback distributed sweep through the
  service, ``{"op": "metrics"}`` returns a snapshot spanning the exec,
  service, and cluster instrument families (the PR's acceptance
  criterion).
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.exec import ResultCache, SerialExecutor
from repro.obs import (
    DEFAULT_LATENCY_EDGES,
    Counter,
    Gauge,
    Histogram,
    ManualClock,
    MetricsRegistry,
    get_registry,
    render_text,
    snapshot_json,
    use_registry,
    write_jsonl,
)
from repro.service import ServiceClient, SweepServer, SweepService, SweepSpec
from repro.sweep import ParameterSweep, SweepPoint

from tests._replay import assert_replay


def quadratic(point: SweepPoint) -> dict:
    x = point["x"]
    return {"y": float(x * x), "seed_mod": float(point.seed % 7)}


def make_sweep(xs=(1, 2, 3), trials=2) -> ParameterSweep:
    return ParameterSweep(quadratic, {"x": list(xs)}, trials=trials, base_seed=7)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# clock
# ----------------------------------------------------------------------
class TestManualClock:
    def test_step_advances_on_every_read(self):
        clock = ManualClock(start=10.0, step=0.5)
        assert clock() == 10.5  # each read advances first, then returns
        assert clock() == 11.0
        assert clock.now == 11.0  # peeking does not advance

    def test_advance_moves_time_explicitly(self):
        clock = ManualClock()
        assert clock() == 0.0
        clock.advance(2.25)
        assert clock() == 2.25


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_counts_and_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4.0

    def test_histogram_buckets_fill_by_edge(self):
        hist = MetricsRegistry().histogram("h", edges=(0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 2.0):
            hist.observe(value)
        snap = hist.snapshot()
        # <=0.1, <=1.0, overflow
        assert snap["buckets"] == [2, 1, 1]
        assert snap["count"] == 4
        assert snap["min"] == 0.05 and snap["max"] == 2.0

    def test_histogram_rejects_unsorted_edges(self):
        with pytest.raises(ConfigurationError, match="ascending"):
            MetricsRegistry().histogram("h", edges=(1.0, 0.1))

    def test_histogram_default_edges_are_the_fixed_latency_layout(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.edges == DEFAULT_LATENCY_EDGES

    @pytest.mark.parametrize(
        "edges",
        [(0.1, 1.0), DEFAULT_LATENCY_EDGES, (-1.0, 0.0, 0.0, 2.0), (1.0, float("inf"))],
    )
    def test_histogram_slot_matches_the_linear_edge_rule(self, edges):
        """Each value lands in the first slot with ``value <= edge``; a
        value above every edge, NaN included, lands in the overflow."""

        def linear_slot(value):
            for i, edge in enumerate(edges):
                if value <= edge:
                    return i
            return len(edges)

        values = [
            *edges,
            *(edge - 1e-9 for edge in edges),
            *(edge + 1e-9 for edge in edges),
            float("nan"), float("inf"), float("-inf"), -5.0, 0.0, 100.0,
        ]
        for value in values:
            hist = MetricsRegistry().histogram("h", edges=edges)
            hist.observe(value)
            buckets = hist.snapshot()["buckets"]
            assert buckets.index(1) == linear_slot(value), value
            assert sum(buckets) == 1


# ----------------------------------------------------------------------
# registry identity and snapshots
# ----------------------------------------------------------------------
class TestRegistry:
    def test_same_name_and_tags_is_the_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("exec.points", executor="serial")
        b = registry.counter("exec.points", executor="serial")
        assert a is b
        # Tag values canonicalise to strings: 1 and "1" are one identity.
        c = registry.counter("shards", attempt=1)
        d = registry.counter("shards", attempt="1")
        assert c is d

    def test_type_mismatch_is_a_configuration_error(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.gauge("m")

    def test_histogram_edge_mismatch_is_a_configuration_error(self):
        registry = MetricsRegistry()
        registry.histogram("h", edges=(1.0, 2.0))
        with pytest.raises(ConfigurationError, match="edges"):
            registry.histogram("h", edges=(1.0, 3.0))

    def test_snapshot_order_is_identity_not_insertion(self):
        forward = MetricsRegistry()
        forward.counter("b")
        forward.counter("a", worker="2")
        forward.counter("a", worker="1")
        backward = MetricsRegistry()
        backward.counter("a", worker="1")
        backward.counter("a", worker="2")
        backward.counter("b")
        assert snapshot_json(forward) == snapshot_json(backward)
        names = [m["name"] for m in forward.snapshot()["metrics"]]
        assert names == ["a", "a", "b"]

    def test_reset_clears_everything(self):
        registry = MetricsRegistry(clock=ManualClock(step=1.0))
        registry.counter("c").inc()
        with registry.span("s"):
            pass
        registry.event("e", key="k")
        registry.reset()
        assert len(registry) == 0
        assert registry.spans == ()
        assert registry.events == ()

    def test_use_registry_scopes_the_process_default(self):
        scoped = MetricsRegistry()
        outer = get_registry()
        with use_registry(scoped):
            assert get_registry() is scoped
        assert get_registry() is outer


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_span_lands_in_histogram_and_trace_buffer(self):
        registry = MetricsRegistry(clock=ManualClock(step=1.0))
        with registry.span("shard.dispatch", worker="local-1"):
            pass
        [record] = registry.spans
        assert record.name == "shard.dispatch"
        assert record.tags == {"worker": "local-1"}
        assert record.elapsed_s == 1.0  # one clock step between reads
        hist = registry.histogram("shard.dispatch", worker="local-1")
        assert hist.count == 1
        assert hist.sum == 1.0

    def test_manual_end_is_idempotent(self):
        registry = MetricsRegistry(clock=ManualClock(step=0.5))
        span = registry.begin_span("s")
        assert span.end() == 0.5
        assert span.end() is None  # fault paths may race completion
        assert len(registry.spans) == 1


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_snapshot_json_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("c", b="2", a="1").inc()
        text = snapshot_json(registry)
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )
        assert '"tags":{"a":"1","b":"2"}' in text

    def test_write_jsonl_emits_metrics_spans_events(self):
        registry = MetricsRegistry(clock=ManualClock(step=1.0))
        registry.counter("c").inc()
        with registry.span("s"):
            pass
        registry.event("e", key="k")
        sink = io.StringIO()
        # span "s" also creates histogram "s": 2 metrics + 1 span + 1 event.
        assert write_jsonl(registry, sink, spans=True, events=True) == 4
        kinds = [json.loads(line)["kind"] for line in sink.getvalue().splitlines()]
        assert kinds == ["metric", "metric", "span", "event"]

    def test_render_text_tabulates_and_handles_empty(self):
        assert render_text({"metrics": []}) == "(no metrics recorded)"
        registry = MetricsRegistry()
        registry.counter("exec.points", executor="serial").inc(3)
        registry.histogram("exec.point_latency_s").observe(0.25)
        text = render_text(registry.snapshot())
        assert "exec.points" in text
        assert "executor=serial" in text
        assert "count=1" in text


# ----------------------------------------------------------------------
# executor instrumentation: stats are views over the registry
# ----------------------------------------------------------------------
class TestExecutorInstrumentation:
    def test_stats_match_registry_counters(self, tmp_path):
        with use_registry(MetricsRegistry()) as registry:
            cache = ResultCache(tmp_path / "cache")
            sweep = make_sweep()
            sweep.run(SerialExecutor(), cache=cache)
            cold = sweep.last_stats
            c_points = registry.counter("exec.points", executor="serial")
            c_hits = registry.counter("exec.cache_hits", executor="serial")
            c_misses = registry.counter("exec.cache_misses", executor="serial")
            assert c_points.value == cold.points == 6
            assert c_hits.value == cold.cache_hits == 0
            assert c_misses.value == 6
            latency = registry.histogram("exec.point_latency_s", executor="serial")
            assert latency.count == 6  # one observation per computed point

            warm = make_sweep()
            warm.run(SerialExecutor(), cache=cache)
            # Per-run stats stay per-run; the registry accumulates.
            assert warm.last_stats.points == 6
            assert warm.last_stats.cache_hits == 6
            assert c_points.value == 12
            assert c_hits.value == 6
            assert latency.count == 6  # cache hits are not latencies

    def test_compute_stream_records_streamed_points(self):
        with use_registry(MetricsRegistry()) as registry:
            sweep = make_sweep(trials=1)
            pending = list(enumerate(sweep.points()))
            results = list(
                SerialExecutor().compute_stream(pending, quadratic)
            )
            assert len(results) == 3
            assert registry.counter("exec.points", executor="serial").value == 3

    def test_two_seeded_runs_snapshot_byte_identically(self):
        def one_run() -> str:
            registry = MetricsRegistry(clock=ManualClock(step=0.001))
            with use_registry(registry):
                make_sweep().run(SerialExecutor())
            return snapshot_json(registry)

        first, second = one_run(), one_run()
        assert first == second
        assert first.encode() == second.encode()

    def test_replay_harness_records_then_verifies(self, tmp_path):
        def one_run():
            registry = MetricsRegistry(clock=ManualClock(step=0.001))
            with use_registry(registry):
                table = make_sweep().run(SerialExecutor())
            return table, registry

        table, registry = one_run()
        path = assert_replay(
            "unit-roundtrip", table, registry, fixtures_dir=tmp_path
        )
        assert path.exists()
        # A faithful rerun replays byte-identically...
        table2, registry2 = one_run()
        assert_replay("unit-roundtrip", table2, registry2, fixtures_dir=tmp_path)
        # ...and a drifted run is caught.
        registry2.counter("exec.points", executor="serial").inc()
        with pytest.raises(AssertionError, match="replay mismatch"):
            assert_replay(
                "unit-roundtrip", table2, registry2, fixtures_dir=tmp_path
            )


# ----------------------------------------------------------------------
# service instrumentation and the metrics verb
# ----------------------------------------------------------------------
class TestServiceMetrics:
    def test_service_counters_cover_jobs_and_dedup(self):
        registry = MetricsRegistry()

        async def scenario():
            with use_registry(registry):
                async with SweepService(
                    workers=1, batch_size=4, registry=registry
                ) as service:
                    job_a = service.submit(make_sweep(trials=1))
                    await job_a.wait()
                    job_b = service.submit(make_sweep(trials=1))
                    await job_b.wait()

        run(scenario())
        assert registry.counter("service.jobs_submitted").value == 2
        assert registry.counter("service.jobs_finished", status="ok").value == 2
        assert registry.counter("service.points_claimed").value == 6
        assert registry.counter("service.points_computed").value == 3
        # Job B rode job A's cached results: every point was a dedup hit.
        assert registry.counter("service.dedup_hits", source="memory").value == 3
        assert registry.histogram("service.job_latency_s").count == 2
        assert registry.gauge("service.queue_depth").value == 0

    def test_metrics_op_covers_exec_service_cluster(self, tmp_path):
        """Acceptance: after a loopback distributed sweep through the
        service, ``{"op": "metrics"}`` returns a snapshot spanning all
        three instrument families."""
        from repro.cluster import DistributedExecutor

        sock = tmp_path / "svc.sock"
        registry = MetricsRegistry()

        async def scenario():
            with use_registry(registry):
                executor = DistributedExecutor(
                    workers=2, shard_size=2, steal_after_s=None
                )
                service = SweepService(
                    executor=executor, batch_size=8, registry=registry
                )
                server = SweepServer(service, sock)
                await server.start()
                try:
                    client = ServiceClient(sock)
                    spec = SweepSpec(
                        grid={"d": [2, 4]}, channel="eviction",
                        variant="fast", bits=8,
                    )
                    events = [e async for e in client.submit(spec)]
                    assert events[-1].kind == "job-done"
                    reply = await client.metrics()
                finally:
                    await server.stop()
                return reply

        reply = run(scenario())
        assert reply.kind == "metrics"
        snapshot = reply.get("snapshot")
        names = {m["name"] for m in snapshot["metrics"]}
        # exec family: the distributed executor streamed the points.
        assert "exec.points" in names
        # service family: the job flowed through the queue.
        assert "service.jobs_submitted" in names
        assert "service.points_computed" in names
        # cluster family: the coordinator and both loopback workers.
        assert "cluster.workers_joined" in names
        assert "cluster.points_done" in names
        assert "worker.points_done" in names
        assert "shard.dispatch" in names  # dispatch→complete spans
        joined = [
            m for m in snapshot["metrics"] if m["name"] == "cluster.workers_joined"
        ]
        assert joined[0]["value"] == 2
        # The snapshot round-trips as canonical JSON (what the CLI prints).
        text = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
        assert json.loads(text) == snapshot

    def test_fetch_metrics_and_cli_render(self, tmp_path, capsys):
        import threading

        from repro.cli import main
        from repro.service.client import fetch_metrics

        sock = tmp_path / "svc.sock"
        registry = MetricsRegistry()
        registry.counter("exec.points", executor="serial").inc(5)
        started = threading.Event()
        stop = threading.Event()

        def serve() -> None:
            async def body():
                server = SweepServer(
                    SweepService(registry=registry), sock
                )
                await server.start()
                started.set()
                try:
                    while not stop.is_set():
                        await asyncio.sleep(0.02)
                finally:
                    await server.stop()

            asyncio.run(body())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            assert started.wait(timeout=10)
            snapshot = fetch_metrics(sock)
            assert any(
                m["name"] == "exec.points" for m in snapshot["metrics"]
            )
            assert main(["metrics", "--socket", str(sock)]) == 0
            table = capsys.readouterr().out
            assert "exec.points" in table
            assert main(["metrics", "--socket", str(sock), "--format", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload == snapshot
        finally:
            stop.set()
            thread.join(timeout=10)

    def test_fetch_metrics_without_server_fails_cleanly(self, tmp_path):
        from repro.service.client import fetch_metrics

        with pytest.raises(ConfigurationError, match="no sweep service"):
            fetch_metrics(tmp_path / "nope.sock")
