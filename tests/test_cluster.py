"""Tests for the distributed sweep fabric (``repro.cluster``).

The fabric's contract, in order of importance:

* **byte-identical merge** — a distributed run produces exactly the
  table a serial run produces, for any worker count, because results
  merge idempotently by point index and metrics ride JSON (which
  round-trips floats bit-exactly);
* **fault tolerance** — a worker killed mid-shard, a worker that stops
  heartbeating, and duplicate deliveries must all leave the run correct:
  shards re-dispatch with bounded retries, evictions free the work, and
  the merge drops duplicates;
* **graceful degradation** — with no workers, ``DistributedExecutor``
  silently falls back to local execution (or fails hard on request);
* **clean shutdown** — stopping a coordinator with shards in flight
  fails the run crisply and releases every task and socket.

Workers here are real: in-process ``ClusterWorker`` tasks speaking the
actual JSONL protocol over real loopback TCP sockets.  The "hostile"
peers (silent, duplicating) are hand-rolled protocol stubs.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.cluster import (
    ClusterError,
    ClusterWorker,
    Coordinator,
    DistributedExecutor,
    Shard,
    locality_key,
    make_executor,
    plan_shards,
)
from repro.cluster.protocol import (
    COORDINATOR_FRAMES,
    PROTOCOL_VERSION,
    Heartbeat,
    PointResult,
    Register,
    ShardDone,
    ShardWork,
    Welcome,
    decode_factory,
    decode_points,
    read_frame,
)
from repro.errors import ConfigurationError
from repro.exec import ParallelExecutor, SerialExecutor
from repro.service.endpoints import open_endpoint, parse_endpoint
from repro.sweep import ParameterSweep, SweepResult
from repro.wire import frame_table, send_frame

#: What a hand-rolled worker stub reads after registering.
WELCOME = frame_table(Welcome)


def run(coro):
    return asyncio.run(coro)


# Factories live at module level: the wire protocol pickles them by
# reference, exactly like ParallelExecutor.
def square_factory(point):
    x = point["x"]
    return {"y": float(x * x), "seed_mod": float(point.seed % 7)}


def slow_factory(point):
    time.sleep(0.03)
    return {"y": float(point["x"] * 3 + point.seed % 5)}


def failing_factory(point):
    raise RuntimeError(f"factory exploded on x={point['x']}")


def make_sweep(xs=(1, 2, 3, 4), trials=1, base_seed=7, factory=square_factory):
    return ParameterSweep(factory, {"x": list(xs)}, trials=trials, base_seed=base_seed)


def rows_of(table):
    return [
        (dict(r.point.values), r.point.trial, r.point.seed, dict(r.metrics))
        for r in table.results
    ]


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------
class TestShardPlanning:
    def test_shards_are_locality_pure_and_bounded(self):
        sweep = ParameterSweep(
            square_factory, {"a": [1, 2], "x": [1, 2, 3, 4, 5]}, trials=1, base_seed=1
        )
        pending = list(enumerate(sweep.points()))
        shards = plan_shards(pending, shard_size=3)
        for shard in shards:
            assert len(shard) <= 3
            keys = {locality_key(point) for _, point in shard.pending}
            assert len(keys) == 1  # never mixes localities
        # Every point appears exactly once, in order.
        flat = [index for shard in shards for index in shard.indices]
        assert flat == list(range(len(pending)))

    def test_planning_is_deterministic(self):
        sweep = make_sweep(xs=range(10), trials=2)
        pending = list(enumerate(sweep.points()))
        first = plan_shards(pending, shard_size=4)
        second = plan_shards(pending, shard_size=4)
        assert [s.pending for s in first] == [s.pending for s in second]
        assert [s.id for s in first] == list(range(len(first)))

    def test_locality_groups_by_all_but_last_axis(self):
        sweep = ParameterSweep(
            square_factory, {"a": [1, 2], "x": [10, 20]}, trials=1, base_seed=3
        )
        points = sweep.points()
        # Same "a" -> same locality; different "a" -> different locality.
        assert locality_key(points[0]) == locality_key(points[1])
        assert locality_key(points[0]) != locality_key(points[2])

    def test_shard_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            plan_shards([], shard_size=0)

    def test_single_axis_grid_chunks_contiguously(self):
        sweep = make_sweep(xs=range(7))
        shards = plan_shards(list(enumerate(sweep.points())), shard_size=3)
        assert [len(s) for s in shards] == [3, 3, 1]


# ----------------------------------------------------------------------
# endpoints
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_tcp_forms(self):
        for text in ("tcp://127.0.0.1:9000", "127.0.0.1:9000"):
            endpoint = parse_endpoint(text)
            assert endpoint.is_tcp
            assert endpoint.host == "127.0.0.1"
            assert endpoint.port == 9000
            assert str(endpoint) == "tcp://127.0.0.1:9000"

    def test_unix_forms(self):
        for text in ("unix:///tmp/x.sock", "/tmp/x.sock", "relative.sock"):
            endpoint = parse_endpoint(text)
            assert not endpoint.is_tcp
            assert endpoint.path.endswith(".sock")

    def test_bad_endpoints_raise(self):
        with pytest.raises(ConfigurationError):
            parse_endpoint("")
        with pytest.raises(ConfigurationError):
            parse_endpoint("tcp://nohost")
        with pytest.raises(ConfigurationError):
            parse_endpoint("host:99999")


# ----------------------------------------------------------------------
# byte-identical distributed execution
# ----------------------------------------------------------------------
class TestDistributedIdentity:
    def test_two_workers_match_serial_exactly(self):
        sweep = make_sweep(xs=(1, 2, 3, 4, 5), trials=2)
        serial = make_sweep(xs=(1, 2, 3, 4, 5), trials=2).run(
            executor=SerialExecutor()
        )
        executor = DistributedExecutor(workers=2, shard_size=2)
        table = sweep.run(executor=executor)
        assert rows_of(table) == rows_of(serial)
        # Bit-exact, not approximately equal: compare the JSON bytes.
        assert json.dumps(rows_of(table)) == json.dumps(rows_of(serial))
        assert executor.last_run is not None
        assert executor.last_run["fallback"] is False
        assert executor.last_run["workers"] == 2

    def test_worker_killed_mid_run_still_matches_serial(self):
        sweep = make_sweep(xs=range(8), factory=slow_factory)
        serial = make_sweep(xs=range(8), factory=slow_factory).run(
            executor=SerialExecutor()
        )

        async def scenario():
            pending = list(enumerate(sweep.points()))
            coordinator = Coordinator(
                pending,
                slow_factory,
                shard_size=2,
                heartbeat_timeout=5.0,
                retry_backoff_s=0.02,
                steal_after_s=None,
            )
            address = await coordinator.start("tcp://127.0.0.1:0")
            victim = asyncio.ensure_future(
                ClusterWorker(address, name="victim", heartbeat_interval=0.2).run()
            )
            survivor = asyncio.ensure_future(
                ClusterWorker(address, name="survivor", heartbeat_interval=0.2).run()
            )
            try:
                while coordinator.merged_points < 1:
                    await asyncio.sleep(0.005)
                victim.cancel()  # hard kill: connection drops mid-shard
                results = await asyncio.wait_for(coordinator.results(), 30)
            finally:
                await coordinator.stop()
                for task in (victim, survivor):
                    task.cancel()
                await asyncio.gather(victim, survivor, return_exceptions=True)
            return results, coordinator.redispatches

        results, redispatches = run(scenario())
        points = sweep.points()
        table = sweep.build_table(
            [SweepResult(point=points[i], metrics=m) for i, m, _ in results]
        )
        assert rows_of(table) == rows_of(serial)
        # The victim held a shard when it died, so at least one shard
        # must have travelled the re-dispatch path.
        assert redispatches >= 1

    def test_distributed_under_the_sweep_service(self):
        from repro.service import SweepService

        async def scenario():
            async with SweepService(
                executor=DistributedExecutor(workers=2, shard_size=2)
            ) as service:
                job = service.submit(make_sweep(xs=(1, 2, 3)))
                await job.wait()
                return job.result()

        table = run(scenario())
        serial = make_sweep(xs=(1, 2, 3)).run(executor=SerialExecutor())
        assert rows_of(table) == rows_of(serial)


# ----------------------------------------------------------------------
# fault tolerance
# ----------------------------------------------------------------------
class TestFaultTolerance:
    def test_heartbeat_timeout_evicts_silent_worker(self):
        sweep = make_sweep(xs=range(4))
        events = []

        async def scenario():
            pending = list(enumerate(sweep.points()))
            coordinator = Coordinator(
                pending,
                square_factory,
                shard_size=2,
                heartbeat_timeout=0.3,
                retry_backoff_s=0.02,
                steal_after_s=None,
                on_event=events.append,
            )
            address = await coordinator.start("tcp://127.0.0.1:0")

            # A hostile stub: registers, accepts a shard, then goes silent.
            reader, writer = await open_endpoint(address)
            await send_frame(
                writer,
                Register(worker="zombie", slots=1, version=PROTOCOL_VERSION),
            )
            welcome = await read_frame(reader, WELCOME)
            assert isinstance(welcome, Welcome)
            shard_msg = await read_frame(reader, COORDINATOR_FRAMES)
            assert isinstance(shard_msg, ShardWork)

            # Now a real worker joins and must end up doing everything.
            worker = asyncio.ensure_future(
                ClusterWorker(address, name="real", heartbeat_interval=0.1).run()
            )
            try:
                results = await asyncio.wait_for(coordinator.results(), 30)
            finally:
                await coordinator.stop()
                worker.cancel()
                await asyncio.gather(worker, return_exceptions=True)
                writer.close()
            return results, coordinator.redispatches

        results, redispatches = run(scenario())
        assert len(results) == 4
        assert redispatches >= 1
        lost = [e for e in events if e.kind == "worker-lost"]
        assert any(e["worker"] == "zombie" for e in lost)
        assert any("heartbeat" in str(e.get("reason")) for e in lost)

    def test_duplicate_deliveries_merge_idempotently(self):
        sweep = make_sweep(xs=(1, 2, 3))
        serial = make_sweep(xs=(1, 2, 3)).run(executor=SerialExecutor())

        async def scenario():
            pending = list(enumerate(sweep.points()))
            coordinator = Coordinator(
                pending, square_factory, shard_size=8, heartbeat_timeout=5.0
            )
            address = await coordinator.start("tcp://127.0.0.1:0")

            # A stub worker that reports every point TWICE.
            reader, writer = await open_endpoint(address)
            await send_frame(
                writer,
                Register(worker="stutter", slots=1, version=PROTOCOL_VERSION),
            )
            await read_frame(reader, WELCOME)
            shard_msg = await read_frame(reader, COORDINATOR_FRAMES)
            factory = decode_factory(shard_msg.factory)
            for index, point in decode_points(shard_msg.points):
                result = PointResult(
                    shard=shard_msg.shard,
                    index=index,
                    metrics=dict(factory(point)),
                    elapsed_s=0.001,
                    cached=False,
                )
                await send_frame(writer, result)
                await send_frame(writer, result)  # the duplicate
            await send_frame(writer, ShardDone(shard=shard_msg.shard))
            try:
                results = await asyncio.wait_for(coordinator.results(), 30)
            finally:
                await coordinator.stop()
                writer.close()
            return results, coordinator.duplicate_results

        results, duplicates = run(scenario())
        assert duplicates == 3  # one duplicate per point, all dropped
        assert [(i, m) for i, m, _ in results] == [
            (i, dict(r.metrics)) for i, r in enumerate(serial.results)
        ]

    def test_failing_factory_exhausts_retries_and_fails_the_run(self):
        sweep = make_sweep(xs=(1,), factory=failing_factory)

        async def scenario():
            pending = list(enumerate(sweep.points()))
            coordinator = Coordinator(
                pending,
                failing_factory,
                shard_size=1,
                heartbeat_timeout=5.0,
                max_retries=1,
                retry_backoff_s=0.01,
            )
            address = await coordinator.start("tcp://127.0.0.1:0")
            worker = asyncio.ensure_future(
                ClusterWorker(address, name="w", heartbeat_interval=0.1).run()
            )
            try:
                with pytest.raises(ClusterError) as excinfo:
                    await asyncio.wait_for(coordinator.results(), 30)
            finally:
                await coordinator.stop()
                worker.cancel()
                await asyncio.gather(worker, return_exceptions=True)
            return str(excinfo.value)

        message = run(scenario())
        assert "factory exploded" in message
        assert "attempt" in message

    def test_coordinator_shutdown_with_inflight_shards(self):
        sweep = make_sweep(xs=range(6), factory=slow_factory)

        async def scenario():
            pending = list(enumerate(sweep.points()))
            coordinator = Coordinator(
                pending, slow_factory, shard_size=2, heartbeat_timeout=5.0
            )
            address = await coordinator.start("tcp://127.0.0.1:0")
            worker_task = asyncio.ensure_future(
                ClusterWorker(address, name="w", heartbeat_interval=0.1).run()
            )
            while coordinator.merged_points < 1:  # shards are in flight
                await asyncio.sleep(0.005)
            await coordinator.stop()
            with pytest.raises(ClusterError) as excinfo:
                await coordinator.results()
            # The worker must notice the shutdown and exit on its own.
            await asyncio.wait_for(worker_task, 10)
            return str(excinfo.value)

        message = run(scenario())
        assert "unresolved" in message

    def test_straggler_shard_is_stolen_by_idle_worker(self):
        sweep = make_sweep(xs=range(2))
        events = []

        async def scenario():
            pending = list(enumerate(sweep.points()))
            coordinator = Coordinator(
                pending,
                square_factory,
                shard_size=1,
                heartbeat_timeout=30.0,  # the straggler must NOT be evicted
                steal_after_s=0.2,
                on_event=events.append,
            )
            address = await coordinator.start("tcp://127.0.0.1:0")

            # The straggler: takes its shard, heartbeats forever, never
            # delivers a result.
            reader, writer = await open_endpoint(address)
            await send_frame(
                writer,
                Register(worker="straggler", slots=1, version=PROTOCOL_VERSION),
            )
            await read_frame(reader, WELCOME)
            straggler_shard = await read_frame(reader, COORDINATOR_FRAMES)

            async def keep_beating():
                while True:
                    await asyncio.sleep(0.05)
                    await send_frame(writer, Heartbeat(worker="straggler"))

            beat = asyncio.ensure_future(keep_beating())
            worker = asyncio.ensure_future(
                ClusterWorker(address, name="fast", heartbeat_interval=0.1).run()
            )
            try:
                results = await asyncio.wait_for(coordinator.results(), 30)
            finally:
                beat.cancel()
                await coordinator.stop()
                worker.cancel()
                await asyncio.gather(beat, worker, return_exceptions=True)
                writer.close()
            return results, coordinator.steals, straggler_shard.shard

        results, steals, straggler_shard_id = run(scenario())
        assert len(results) == 2
        assert steals >= 1
        stolen = [e for e in events if e.kind == "shard-stolen"]
        assert any(e["shard"] == straggler_shard_id for e in stolen)

    def test_coordinator_restart_with_stale_worker_still_heartbeating(self):
        """A coordinator dies mid-run and a replacement takes over while
        a worker from the old incarnation is still alive and beating at
        the dead socket.  The stale worker must not disturb the new run:
        the merge is byte-identical to serial and the replacement's
        fault counters stay clean."""
        from repro.obs import MetricsRegistry, use_registry

        sweep = make_sweep(xs=(1, 2, 3, 4))
        serial = make_sweep(xs=(1, 2, 3, 4)).run(executor=SerialExecutor())
        registry = MetricsRegistry()

        async def scenario():
            pending = list(enumerate(sweep.points()))
            first = Coordinator(
                pending, square_factory, shard_size=2, heartbeat_timeout=5.0
            )
            address_a = await first.start("tcp://127.0.0.1:0")

            # The stale worker: registers with the first incarnation and
            # holds a shard when that coordinator dies.
            reader, writer = await open_endpoint(address_a)
            await send_frame(
                writer,
                Register(worker="stale", slots=1, version=PROTOCOL_VERSION),
            )
            await read_frame(reader, WELCOME)
            shard_msg = await read_frame(reader, COORDINATOR_FRAMES)
            assert isinstance(shard_msg, ShardWork)
            await first.stop("simulated crash")
            with pytest.raises(ClusterError):
                await first.results()

            # It keeps heartbeating into the dead connection — exactly
            # what a worker that missed the shutdown frame would do.
            async def beat_at_the_void():
                while True:
                    await asyncio.sleep(0.02)
                    try:
                        await send_frame(writer, Heartbeat(worker="stale"))
                    except (ConnectionResetError, BrokenPipeError, OSError):
                        await asyncio.sleep(0.02)

            stale_beat = asyncio.ensure_future(beat_at_the_void())

            # The replacement incarnation reruns the same pending points
            # on a fresh socket with a fresh worker.
            second = Coordinator(
                pending, square_factory, shard_size=2, heartbeat_timeout=5.0
            )
            address_b = await second.start("tcp://127.0.0.1:0")
            worker = asyncio.ensure_future(
                ClusterWorker(address_b, name="fresh", heartbeat_interval=0.1).run()
            )
            try:
                results = await asyncio.wait_for(second.results(), 30)
            finally:
                stale_beat.cancel()
                await second.stop()
                worker.cancel()
                await asyncio.gather(stale_beat, worker, return_exceptions=True)
                writer.close()
            return results, second

        with use_registry(registry):
            results, second = run(scenario())
        points = sweep.points()
        table = sweep.build_table(
            [SweepResult(point=points[i], metrics=m) for i, m, _ in results]
        )
        assert json.dumps(rows_of(table)) == json.dumps(rows_of(serial))
        # The stale worker never reached the replacement: no duplicate
        # merges, no re-dispatches, and only the fresh worker joined it.
        assert second.duplicate_results == 0
        assert second.redispatches == 0
        assert second.workers == ()  # all cleaned up after stop
        # Registry view consistency: both incarnations' joins accumulate
        # on the shared counter, while each instance's views stay local.
        assert registry.counter("cluster.workers_joined").value == 2
        assert registry.counter("cluster.redispatches").value == 0

    def test_immediate_steal_races_normal_completion(self):
        """``steal_after_s=0`` makes every lone in-flight shard stealable
        the moment a worker goes idle, so duplicate dispatches race the
        original's completion.  Whichever copy reports first must win,
        late copies must drop, and the merge must stay byte-identical."""
        from repro.obs import MetricsRegistry, use_registry

        xs = tuple(range(6))
        sweep = make_sweep(xs=xs, factory=slow_factory)
        serial = make_sweep(xs=xs, factory=slow_factory).run(
            executor=SerialExecutor()
        )
        registry = MetricsRegistry()

        async def scenario():
            pending = list(enumerate(sweep.points()))
            coordinator = Coordinator(
                pending,
                slow_factory,
                shard_size=3,
                heartbeat_timeout=30.0,
                steal_after_s=0.0,  # immediate: steals race completions
            )
            address = await coordinator.start("tcp://127.0.0.1:0")
            workers = [
                asyncio.ensure_future(
                    ClusterWorker(
                        address, name=f"racer-{i}", heartbeat_interval=0.1
                    ).run()
                )
                for i in range(3)
            ]
            try:
                results = await asyncio.wait_for(coordinator.results(), 30)
            finally:
                await coordinator.stop()
                for task in workers:
                    task.cancel()
                await asyncio.gather(*workers, return_exceptions=True)
            return results, coordinator

        with use_registry(registry):
            results, coordinator = run(scenario())
        points = sweep.points()
        table = sweep.build_table(
            [SweepResult(point=points[i], metrics=m) for i, m, _ in results]
        )
        # The race changed nothing observable: byte-identical merge.
        assert json.dumps(rows_of(table)) == json.dumps(rows_of(serial))
        # Two shards, three workers: the idle one must have stolen, and
        # stolen copies never travel the retry path.
        assert coordinator.steals >= 1
        assert coordinator.redispatches == 0
        # Every duplicate the race produced was counted and dropped —
        # never more than one extra delivery per point.
        assert 0 <= coordinator.duplicate_results <= len(xs)
        # Views agree with the shared registry instruments.
        assert registry.counter("cluster.steals").value == coordinator.steals
        assert (
            registry.counter("cluster.duplicate_results").value
            == coordinator.duplicate_results
        )


# ----------------------------------------------------------------------
# graceful degradation
# ----------------------------------------------------------------------
class TestDegradation:
    def test_no_workers_falls_back_to_local_execution(self):
        sweep = make_sweep(xs=(1, 2, 3))
        serial = make_sweep(xs=(1, 2, 3)).run(executor=SerialExecutor())
        executor = DistributedExecutor(workers=0, wait_workers_s=0.1)
        table = sweep.run(executor=executor)
        assert rows_of(table) == rows_of(serial)
        assert executor.last_run == {"fallback": True, "workers": 0}

    def test_no_workers_with_fallback_disabled_raises(self):
        sweep = make_sweep(xs=(1, 2))
        executor = DistributedExecutor(
            workers=0, wait_workers_s=0.1, fallback=False
        )
        with pytest.raises(ClusterError):
            sweep.run(executor=executor)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            DistributedExecutor(workers=-1)
        with pytest.raises(ConfigurationError):
            DistributedExecutor(jobs=0)
        with pytest.raises(ConfigurationError):
            Coordinator([], square_factory, heartbeat_timeout=0.0)
        with pytest.raises(ConfigurationError):
            Coordinator([], square_factory, max_retries=-1)

    def test_make_executor_choice(self):
        assert type(make_executor()) is SerialExecutor
        assert type(make_executor(jobs=2)) is ParallelExecutor
        spawned = make_executor(jobs=2, workers=3, shard_size=5)
        assert type(spawned) is DistributedExecutor
        assert (spawned.workers, spawned.worker_jobs, spawned.shard_size) == (3, 2, 5)
        assert str(spawned.bind) == "tcp://127.0.0.1:0"
        # Any explicit bind waits for external workers, the loopback
        # ephemeral address included.
        for bind in ("cluster.sock", "tcp://127.0.0.1:0"):
            external = make_executor(bind=bind)
            assert type(external) is DistributedExecutor
            assert external.workers == 0 and str(external.bind) == bind
        with pytest.raises(ConfigurationError):
            make_executor(workers=-1)

    def test_empty_grid_completes_without_workers(self):
        async def scenario():
            coordinator = Coordinator([], square_factory)
            assert coordinator.finished
            return await coordinator.results()

        assert run(scenario()) == []


# ----------------------------------------------------------------------
# caching across the wire
# ----------------------------------------------------------------------
class TestWorkerCache:
    def test_worker_side_cache_answers_repeat_points(self, tmp_path):
        xs = (1, 2, 3, 4)
        first = DistributedExecutor(
            workers=2, shard_size=2, cache_dir=str(tmp_path / "wcache")
        )
        table_a = make_sweep(xs=xs).run(executor=first)

        second = DistributedExecutor(
            workers=2, shard_size=2, cache_dir=str(tmp_path / "wcache")
        )
        table_b = make_sweep(xs=xs).run(executor=second)
        assert rows_of(table_a) == rows_of(table_b)
        assert second.last_run["remote_cache_hits"] == len(xs)
