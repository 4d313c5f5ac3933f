"""Tests for the sweep service (``repro.service``).

The service's contract, in order of importance:

* **dedup** — submitting the same grid twice concurrently executes each
  unique point at most once; both jobs still get full, identical tables;
* **cache** — a cache-warm resubmit completes with zero executions;
* **cancellation** — a job cancelled mid-grid stops at a point boundary
  and releases its unshared pending points;
* **events** — every job narrates a complete, ordered JSONL stream:
  submitted, scheduled, per-point events, terminal job-done.

Everything here drives :class:`SweepService` in-process (no sockets);
the socket protocol has its own section at the bottom.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import math
import threading
import time
import tracemalloc

import pytest

from repro.errors import ConfigurationError
from repro.exec import ResultCache, SerialExecutor
from repro.service import (
    Event,
    JobStatus,
    Scheduler,
    ServiceClient,
    SweepServer,
    SweepService,
    SweepSpec,
)
from repro.service.client import submit_and_stream
from repro.sweep import ParameterSweep


def run(coro):
    return asyncio.run(coro)


class CountingFactory:
    """Factory that counts real executions (and can be slowed down)."""

    def __init__(self, delay_s: float = 0.0) -> None:
        self.calls: list[dict] = []
        self.delay_s = delay_s

    def __call__(self, point) -> dict:
        self.calls.append(dict(point.values))
        if self.delay_s:
            time.sleep(self.delay_s)
        x = point["x"]
        return {"y": float(x * x), "seed_mod": float(point.seed % 7)}


def make_sweep(factory, xs=(1, 2, 3, 4), trials=1, base_seed=7) -> ParameterSweep:
    return ParameterSweep(factory, {"x": list(xs)}, trials=trials, base_seed=base_seed)


# ----------------------------------------------------------------------
# cross-job dedup
# ----------------------------------------------------------------------
class TestDedup:
    def test_concurrent_identical_grids_execute_each_point_once(self):
        factory = CountingFactory()

        async def scenario():
            async with SweepService(workers=2, batch_size=2) as service:
                job_a = service.submit(make_sweep(factory))
                job_b = service.submit(make_sweep(factory))
                await asyncio.gather(job_a.wait(), job_b.wait())
                return job_a, job_b, service.scheduler.executions

        job_a, job_b, executions = run(scenario())
        assert job_a.status is JobStatus.DONE
        assert job_b.status is JobStatus.DONE
        # The acceptance criterion: each unique point at most once.
        assert len(factory.calls) == 4
        assert executions == 4
        # Both jobs still see every point, with identical tables.
        assert job_a.result().rows() == job_b.result().rows()
        shares = [
            e for job in (job_a, job_b) for e in job.events
            if e.kind == "point-done" and e["shared"]
        ]
        assert len(shares) == 4  # one job computed, the other subscribed

    def test_overlapping_grids_share_only_the_overlap(self):
        factory = CountingFactory()

        async def scenario():
            async with SweepService(workers=2, batch_size=2) as service:
                job_a = service.submit(make_sweep(factory, xs=(1, 2, 3)))
                job_b = service.submit(make_sweep(factory, xs=(2, 3, 4)))
                await asyncio.gather(job_a.wait(), job_b.wait())
                return service.scheduler.executions

        executions = run(scenario())
        assert executions == 4  # union {1,2,3,4}, not 6
        assert len(factory.calls) == 4

    def test_duplicate_points_within_one_grid_execute_once(self):
        factory = CountingFactory()

        async def scenario():
            async with SweepService() as service:
                job = service.submit(make_sweep(factory, xs=(2, 2, 2)))
                await job.wait()
                return job

        job = run(scenario())
        assert job.status is JobStatus.DONE
        assert len(factory.calls) == 1
        assert len(job.result().results) == 3  # all indices resolved

    def test_different_seeds_do_not_dedup(self):
        factory = CountingFactory()

        async def scenario():
            async with SweepService() as service:
                job_a = service.submit(make_sweep(factory, base_seed=1))
                job_b = service.submit(make_sweep(factory, base_seed=2))
                await asyncio.gather(job_a.wait(), job_b.wait())

        run(scenario())
        assert len(factory.calls) == 8  # seeds differ: different points


# ----------------------------------------------------------------------
# cache integration
# ----------------------------------------------------------------------
class TestCache:
    def test_cache_warm_resubmit_zero_executions(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        factory = CountingFactory()

        async def first():
            async with SweepService(cache=cache) as service:
                job = service.submit(make_sweep(factory))
                await job.wait()
                return job.result().rows()

        cold_rows = run(first())
        assert len(factory.calls) == 4

        # A *fresh* service (empty in-memory memo) against the same
        # cache: every point is a disk hit, nothing executes.
        async def second():
            async with SweepService(cache=cache) as service:
                job = service.submit(make_sweep(factory))
                await job.wait()
                return job

        job = run(second())
        assert len(factory.calls) == 4  # unchanged: zero executions
        assert job.status is JobStatus.DONE
        assert job.result().rows() == cold_rows
        kinds = [e.kind for e in job.events]
        assert kinds.count("cache-hit") == 4
        assert kinds.count("point-done") == 0
        assert all(
            e["source"] == "disk" for e in job.events if e.kind == "cache-hit"
        )

    def test_same_service_resubmit_hits_memory(self):
        factory = CountingFactory()

        async def scenario():
            async with SweepService() as service:
                first = service.submit(make_sweep(factory))
                await first.wait()
                again = service.submit(make_sweep(factory))
                await again.wait()
                return again

        job = run(scenario())
        assert len(factory.calls) == 4
        sources = {e["source"] for e in job.events if e.kind == "cache-hit"}
        assert sources == {"memory"}

    def test_service_results_match_plain_sweep_run(self, tmp_path):
        """The service is an execution strategy, not a semantics change."""
        factory = CountingFactory()
        reference = make_sweep(factory).run(SerialExecutor())

        async def scenario():
            async with SweepService(batch_size=3) as service:
                job = service.submit(make_sweep(factory))
                await job.wait()
                return job.result()

        assert run(scenario()) == reference


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------
class TestCancellation:
    def test_cancel_mid_grid_stops_execution(self):
        factory = CountingFactory(delay_s=0.02)

        async def scenario():
            async with SweepService(batch_size=1) as service:
                job = service.submit(make_sweep(factory, xs=range(1, 21)))
                # Cancel as soon as the first point completes.
                while True:
                    event = await job.event_queue.get()
                    assert event is not None
                    if event.kind == "point-done":
                        break
                service.cancel(job.id)
                status = await job.wait()
                return job, status

        job, status = run(scenario())
        assert status is JobStatus.CANCELLED
        assert job.events[-1].kind == "job-done"
        assert job.events[-1]["status"] == "cancelled"
        # Far fewer than 20 points ran (only dispatched batches finish).
        assert 1 <= len(factory.calls) < 20
        with pytest.raises(ConfigurationError):
            job.result()

    def test_cancelled_job_done_rounds_elapsed_like_ok_and_failed(self):
        """Every job-done event carries elapsed_s rounded to 6 places."""
        ticks = itertools.count()

        def clock() -> float:  # each reading differs by a multiple of pi
            return math.pi * next(ticks)

        def fails(point) -> dict:
            raise RuntimeError("boom")

        async def scenario():
            async with SweepService(batch_size=1, clock=clock) as service:
                ok = service.submit(make_sweep(CountingFactory(), xs=(1,)))
                failed = service.submit(make_sweep(fails, xs=(1,)))
                cancelled = service.submit(
                    make_sweep(CountingFactory(delay_s=0.02), xs=range(1, 21))
                )
                await asyncio.gather(ok.wait(), failed.wait())
                while True:
                    event = await cancelled.event_queue.get()
                    if event.kind == "point-done":
                        break
                service.cancel(cancelled.id)
                await cancelled.wait()
                return ok, failed, cancelled

        jobs = run(scenario())
        assert [job.status for job in jobs] == [
            JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED
        ]
        for job in jobs:
            elapsed = job.events[-1]["elapsed_s"]
            assert elapsed > 0
            assert elapsed == round(elapsed, 6), (job.status, elapsed)

    def test_cancel_queued_job_never_runs(self):
        factory = CountingFactory(delay_s=0.02)

        async def scenario():
            async with SweepService(workers=1, batch_size=1) as service:
                running = service.submit(make_sweep(factory, xs=(1, 2, 3)))
                queued = service.submit(make_sweep(factory, xs=(7, 8, 9)))
                assert service.cancel(queued.id)
                await asyncio.gather(running.wait(), queued.wait())
                return running, queued

        running, queued = run(scenario())
        assert running.status is JobStatus.DONE
        assert queued.status is JobStatus.CANCELLED
        assert all(call["x"] < 7 for call in factory.calls)
        assert [e.kind for e in queued.events] == ["submitted", "job-done"]

    def test_cancelled_job_does_not_strand_shared_points(self):
        """A point shared with a live job survives the owner's cancellation."""
        factory = CountingFactory(delay_s=0.01)

        async def scenario():
            async with SweepService(workers=2, batch_size=1) as service:
                owner = service.submit(make_sweep(factory, xs=(1, 2, 3, 4)))
                rider = service.submit(make_sweep(factory, xs=(1, 2, 3, 4)))
                service.cancel(owner.id)
                await asyncio.gather(owner.wait(), rider.wait())
                return rider

        rider = run(scenario())
        assert rider.status is JobStatus.DONE
        assert len(rider.result().results) == 4

    def test_cancel_unknown_or_finished_job_is_refused(self):
        factory = CountingFactory()

        async def scenario():
            async with SweepService() as service:
                job = service.submit(make_sweep(factory))
                await job.wait()
                return service.cancel(job.id), service.cancel("job-999")

        assert run(scenario()) == (False, False)


# ----------------------------------------------------------------------
# event streams
# ----------------------------------------------------------------------
class TestEvents:
    def test_stream_is_ordered_and_complete(self):
        factory = CountingFactory()

        async def scenario():
            async with SweepService() as service:
                job = service.submit(make_sweep(factory, trials=2))
                await job.wait()
                return job

        job = run(scenario())
        kinds = [e.kind for e in job.events]
        assert kinds[0] == "submitted"
        assert kinds[1] == "scheduled"
        assert kinds[-1] == "job-done"
        per_point = [e for e in job.events if e.kind in ("point-done", "cache-hit")]
        assert len(per_point) == 8  # 4 coordinates x 2 trials, no gaps
        assert [e["done"] for e in per_point] == list(range(1, 9))
        assert {e["point"] for e in per_point} == set(range(8))
        seqs = [e["seq"] for e in job.events]
        assert seqs == sorted(seqs)
        done = job.events[-1]
        assert done["status"] == "ok"
        assert done["points"] == 8
        assert done["computed"] + done["shared"] + done["cache_hits"] == 8

    def test_events_round_trip_through_jsonl(self):
        factory = CountingFactory()

        async def scenario():
            async with SweepService() as service:
                job = service.submit(make_sweep(factory))
                await job.wait()
                return job

        job = run(scenario())
        for event in job.events:
            decoded = Event.from_json(event.to_json())
            assert decoded.kind == event.kind
            assert json.loads(event.to_json())["event"] == event.kind

    def test_service_wide_subscription_sees_all_jobs(self):
        factory = CountingFactory()

        async def scenario():
            async with SweepService() as service:
                feed = service.subscribe()
                job_a = service.submit(make_sweep(factory, xs=(1, 2)))
                job_b = service.submit(make_sweep(factory, xs=(3, 4)))
                await asyncio.gather(job_a.wait(), job_b.wait())
                seen = []
                while not feed.empty():
                    seen.append(feed.get_nowait())
                return {e["job"] for e in seen if e is not None}

        assert run(scenario()) == {"job-1", "job-2"}

    def test_tenant_scoped_subscription_filters_other_clients(self):
        factory = CountingFactory()

        async def scenario():
            async with SweepService() as service:
                feed = service.subscribe(client="alice")
                job_a = service.submit(
                    make_sweep(factory, xs=(1, 2)), client="alice"
                )
                job_b = service.submit(
                    make_sweep(factory, xs=(3, 4)), client="bob"
                )
                await asyncio.gather(job_a.wait(), job_b.wait())
                seen = set()
                while not feed.empty():
                    event = feed.get_nowait()
                    if event is not None:
                        seen.add(event["job"])
                return job_a.id, seen

        job_a_id, seen = run(scenario())
        assert seen == {job_a_id}

    def test_priority_orders_job_starts(self):
        factory = CountingFactory(delay_s=0.005)

        async def scenario():
            service = SweepService(workers=1, batch_size=1)
            low = service.submit(make_sweep(factory, xs=(1,)), priority=0)
            high = service.submit(make_sweep(factory, xs=(2,)), priority=10)
            mid = service.submit(make_sweep(factory, xs=(3,)), priority=5)
            feed = service.subscribe()
            async with service:
                await asyncio.gather(low.wait(), high.wait(), mid.wait())
            order = []
            while not feed.empty():
                event = feed.get_nowait()
                if event is not None and event.kind == "scheduled":
                    order.append(event["job"])
            return low.id, mid.id, high.id, order

        low_id, mid_id, high_id, order = run(scenario())
        assert order == [high_id, mid_id, low_id]


# ----------------------------------------------------------------------
# failures
# ----------------------------------------------------------------------
class TestFailures:
    def test_factory_error_fails_job_and_service_survives(self):
        def bad(point):
            raise ValueError("boom at x=%s" % point["x"])

        good = CountingFactory()

        async def scenario():
            async with SweepService() as service:
                failed = service.submit(ParameterSweep(bad, {"x": [1, 2]}))
                await failed.wait()
                healthy = service.submit(make_sweep(good))
                await healthy.wait()
                return failed, healthy

        failed, healthy = run(scenario())
        assert failed.status is JobStatus.FAILED
        assert "boom" in failed.error
        kinds = [e.kind for e in failed.events]
        assert "error" in kinds and kinds[-1] == "job-done"
        assert failed.events[-1]["status"] == "error"
        assert healthy.status is JobStatus.DONE

    def test_inconsistent_metrics_fail_cleanly(self):
        def ragged(point):
            return {"a": 1.0} if point["x"] == 1 else {"b": 2.0}

        async def scenario():
            async with SweepService() as service:
                job = service.submit(ParameterSweep(ragged, {"x": [1, 2]}))
                await job.wait()
                return job

        job = run(scenario())
        assert job.status is JobStatus.FAILED
        assert "same metrics" in job.error


# ----------------------------------------------------------------------
# job GC (TTL retention of terminal jobs)
# ----------------------------------------------------------------------
class FakeClock:
    """Injectable monotonic clock the GC tests advance by hand."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestJobGc:
    def test_terminal_jobs_evicted_after_ttl(self):
        clock = FakeClock()
        factory = CountingFactory()

        async def scenario():
            async with SweepService(job_ttl_s=60.0, clock=clock) as service:
                job_a = service.submit(make_sweep(factory, xs=(1, 2)))
                await job_a.wait()
                assert job_a.id in service.jobs  # fresh terminal job kept
                clock.advance(61.0)
                evicted = service.gc()
                # The job object stays usable for its holder; only the
                # service's registry (and thus its event log) lets go.
                return job_a, evicted, dict(service.jobs)

        job_a, evicted, jobs = run(scenario())
        assert evicted == 1
        assert job_a.id not in jobs
        assert job_a.status is JobStatus.DONE
        assert job_a.result().rows()  # holder's handle still works

    def test_submit_triggers_gc_and_live_jobs_survive(self):
        clock = FakeClock()
        factory = CountingFactory()

        async def scenario():
            async with SweepService(job_ttl_s=60.0, clock=clock) as service:
                old = service.submit(make_sweep(factory, xs=(1,)))
                await old.wait()
                clock.advance(120.0)
                fresh = service.submit(make_sweep(factory, xs=(2,)))
                jobs_after_submit = set(service.jobs)
                await fresh.wait()
                return old, fresh, jobs_after_submit

        old, fresh, jobs_after_submit = run(scenario())
        # submit() itself GCed the expired job; the new job is live.
        assert old.id not in jobs_after_submit
        assert fresh.id in jobs_after_submit
        assert fresh.status is JobStatus.DONE

    def test_cancelled_and_failed_jobs_are_evicted_too(self):
        clock = FakeClock()

        def bad(point):
            raise ValueError("boom")

        async def scenario():
            async with SweepService(job_ttl_s=10.0, clock=clock) as service:
                failed = service.submit(ParameterSweep(bad, {"x": [1]}))
                await failed.wait()
                queued = service.submit(make_sweep(CountingFactory()))
                queued.cancel()
                await queued.wait()
                clock.advance(11.0)
                evicted = service.gc()
                return failed, queued, evicted, dict(service.jobs)

        failed, queued, evicted, jobs = run(scenario())
        assert failed.status is JobStatus.FAILED
        assert queued.status is JobStatus.CANCELLED
        assert evicted == 2
        assert not jobs

    def test_no_ttl_keeps_jobs_forever(self):
        clock = FakeClock()
        factory = CountingFactory()

        async def scenario():
            async with SweepService(clock=clock) as service:  # job_ttl_s=None
                job = service.submit(make_sweep(factory, xs=(1,)))
                await job.wait()
                clock.advance(10**9)
                evicted = service.gc()
                return job, evicted, dict(service.jobs)

        job, evicted, jobs = run(scenario())
        assert evicted == 0
        assert job.id in jobs

    def test_negative_ttl_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepService(job_ttl_s=-1.0)

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            SweepService(workers=0)

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ConfigurationError, match="batch_size must be >= 1"):
            Scheduler(batch_size=0)
        with pytest.raises(ConfigurationError, match="batch_size must be >= 1"):
            SweepService(batch_size=0)


# ----------------------------------------------------------------------
# what a finished job keeps
# ----------------------------------------------------------------------
class TestFinishedJobFootprint:
    def test_finished_job_drops_its_events_but_keeps_working(self):
        factory = CountingFactory()

        async def scenario():
            async with SweepService() as service:
                job = service.submit(make_sweep(factory, xs=(1, 2)))
                first = await job.wait()
                again = await job.wait()
                job.cancel()
                return job, first, again

        job, first, again = run(scenario())
        assert first is again is JobStatus.DONE
        assert job._cancel is None and job._finished is None
        assert job.cancel_requested
        assert job.status is JobStatus.DONE
        assert job.result().rows()

    def test_retained_memory_per_served_job_is_small(self, tmp_path):
        """A job served over the socket keeps its events and result, not
        the asyncio feed and events it needed while live (about 10.7 KB
        per job before they were released)."""
        sock = tmp_path / "svc.sock"
        spec = SweepSpec(grid={"d": [2]}, channel="eviction", variant="fast", bits=8)
        jobs = 30

        async def scenario():
            service = SweepService()
            server = SweepServer(service, sock)
            await server.start()
            client = ServiceClient(sock)
            try:
                for _ in range(3):  # warm the result memo and the codecs
                    [e async for e in client.submit(spec)]
                gc.collect()
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    for _ in range(jobs):
                        [e async for e in client.submit(spec)]
                    gc.collect()
                    grown = tracemalloc.get_traced_memory()[0] - before
                finally:
                    tracemalloc.stop()
                return service, grown
            finally:
                await server.stop()

        service, grown = run(scenario())
        assert len(service.jobs) == jobs + 3
        assert all(job.event_queue is None for job in service.jobs.values())
        assert grown / jobs <= 7 * 1024


# ----------------------------------------------------------------------
# the socket protocol (serve / submit)
# ----------------------------------------------------------------------
class TestSocketProtocol:
    def test_submit_streams_events_and_rows(self, tmp_path):
        sock = tmp_path / "svc.sock"

        async def scenario():
            service = SweepService(batch_size=4)
            server = SweepServer(service, sock)
            await server.start()
            try:
                client = ServiceClient(sock)
                pong = await client.ping()
                assert pong.kind == "pong"
                spec = SweepSpec(
                    grid={"d": [2, 4]}, channel="eviction", variant="fast", bits=8
                )
                events = [e async for e in client.submit(spec)]
            finally:
                await server.stop()
            return events

        events = run(scenario())
        kinds = [e.kind for e in events]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "job-done"
        done = events[-1]
        assert done["status"] == "ok"
        assert done["parameters"] == ["d"]
        assert done["metrics"] == ["kbps", "error"]
        assert [row["d"] for row in done["rows"]] == [2, 4]
        assert all(row["kbps_mean"] > 0 for row in done["rows"])

    def test_malformed_requests_get_error_events(self, tmp_path):
        sock = tmp_path / "svc.sock"

        async def scenario():
            server = SweepServer(SweepService(), sock)
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(str(sock))
                writer.write(b'{"op": "launch-missiles"}\n')
                await writer.drain()
                reply = Event.from_json((await reader.readline()).decode())
                writer.close()

                reader, writer = await asyncio.open_unix_connection(str(sock))
                writer.write(b'{"op": "submit", "spec": {"grid": {}}}\n')
                await writer.drain()
                bad_spec = Event.from_json((await reader.readline()).decode())
                writer.close()
            finally:
                await server.stop()
            return reply, bad_spec

        reply, bad_spec = run(scenario())
        assert reply.kind == "error" and "unknown op" in str(reply["message"])
        assert bad_spec.kind == "error"

    @pytest.mark.parametrize("axis", [5, "246"], ids=["number", "string"])
    def test_malformed_grid_axis_gets_exactly_one_error_event(
        self, tmp_path, axis
    ):
        """A grid axis must be an array: a number used to kill the
        connection (uncaught TypeError) and a string used to run as the
        axis ``d in {"2", "4", "6"}``."""
        sock = tmp_path / "svc.sock"

        async def scenario():
            server = SweepServer(SweepService(), sock)
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(str(sock))
                request = {"op": "submit", "spec": {"grid": {"d": axis}}}
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                lines = []
                while line := await asyncio.wait_for(reader.readline(), 30):
                    lines.append(line)
                writer.close()
                pong = await ServiceClient(sock).ping()
            finally:
                await server.stop()
            return [Event.from_json(line.decode()) for line in lines], pong

        replies, pong = run(scenario())
        assert [event.kind for event in replies] == ["error"]
        assert "grid" in str(replies[0]["message"])
        assert pong.kind == "pong"

    def test_client_without_server_fails_cleanly(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no sweep service"):
            run(ServiceClient(tmp_path / "nope.sock").ping())

    def test_cli_submit_against_live_server(self, tmp_path, capsys):
        from repro.cli import main

        sock = tmp_path / "svc.sock"
        started = threading.Event()
        stop = threading.Event()

        def serve() -> None:
            async def body():
                server = SweepServer(SweepService(batch_size=4), sock)
                await server.start()
                started.set()
                try:
                    while not stop.is_set():
                        await asyncio.sleep(0.02)
                finally:
                    await server.stop()

            asyncio.run(body())

        flags = ["--param", "d=2,4", "--bits", "8", "--channel", "eviction",
                 "--variant", "fast"]
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            assert started.wait(timeout=10)
            code = main(["submit", "--socket", str(sock), *flags])
        finally:
            stop.set()
            thread.join(timeout=10)
        assert code == 0
        captured = capsys.readouterr()
        events = [json.loads(line) for line in captured.err.splitlines()]
        assert [e["event"] for e in events][-1] == "job-done"
        # The heading and the table match a local run's; only the last
        # line, each path's own summary, differs.
        assert main(["sweep", "--no-cache", *flags]) == 0
        local = capsys.readouterr().out.splitlines()
        submitted = captured.out.splitlines()
        assert len(submitted) == len(local) == 6  # heading, 2 + 2 table lines, summary
        assert submitted[:-1] == local[:-1]
        assert "kbps_mean" in submitted[1]

    def test_submit_and_stream_returns_terminal_event(self, tmp_path):
        sock = tmp_path / "svc.sock"
        started = threading.Event()
        stop = threading.Event()

        def serve() -> None:
            async def body():
                server = SweepServer(SweepService(), sock)
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
            import io

            err = io.StringIO()
            final = submit_and_stream(
                sock,
                SweepSpec(grid={"d": [2]}, variant="fast", bits=8),
                events_out=err,
            )
        finally:
            stop.set()
            thread.join(timeout=10)
        assert final.kind == "job-done" and final["status"] == "ok"
        assert '"event":"submitted"' in err.getvalue()


# ----------------------------------------------------------------------
# the serialisable spec
# ----------------------------------------------------------------------
class TestSweepSpec:
    def test_round_trips_through_json(self):
        spec = SweepSpec(
            grid={"d": [1, 2, 4], "M": [8]},
            machine="Gold 6226",
            channel="misalignment",
            variant="stealthy",
            bits=16,
            trials=2,
            base_seed=3,
            priority=7,
            label="fig11-slice",
        )
        assert SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_build_sweep_matches_cli_sweep_semantics(self):
        spec = SweepSpec(grid={"d": [2]}, variant="fast", bits=8)
        sweep = spec.build_sweep()
        points = sweep.points()
        assert len(points) == 1 and points[0]["d"] == 2
        metrics = sweep.factory(points[0])
        assert set(metrics) == {"kbps", "error"}

    def test_point_count_matches_expansion_without_building(self):
        spec = SweepSpec(grid={"d": [1, 2, 4], "M": [8, 16]}, trials=3)
        assert spec.point_count() == 18
        assert spec.point_count() == len(spec.build_sweep().points())

    def test_rejects_unknown_channel_and_fields(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(grid={"d": [1]}, channel="tlb")
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict({"grid": {"d": [1]}, "warp": 9})
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict({"channel": "eviction"})


class TestWatchOp:
    """The ``watch`` op: service-wide event streaming over the socket."""

    def test_two_concurrent_watchers_see_the_same_stream(self, tmp_path):
        sock = tmp_path / "svc.sock"

        async def watcher(client):
            seen = []
            async for event in client.watch():
                seen.append(event)
                if event.kind == "job-done":
                    break
            return seen

        async def scenario():
            service = SweepService()
            server = SweepServer(service, sock)
            await server.start()
            try:
                client = ServiceClient(sock)
                first = asyncio.ensure_future(watcher(client))
                second = asyncio.ensure_future(watcher(client))
                # Let both watchers finish subscribing before submitting,
                # otherwise one may miss the leading "submitted" event.
                while service.subscriber_count < 2:
                    await asyncio.sleep(0.01)
                job = service.submit(make_sweep(CountingFactory(), xs=(1, 2)))
                await job.wait()
                streams = await asyncio.gather(first, second)
            finally:
                await server.stop()
            return streams

        first, second = run(scenario())
        for stream in (first, second):
            assert stream[0].kind == "watching"
            kinds = [e.kind for e in stream[1:]]
            assert kinds[0] == "submitted"
            assert kinds[-1] == "job-done"
            assert "point-done" in kinds
        # Both watchers observed the identical sequence (the "watching"
        # ack differs: it snapshots the watcher count at subscribe time).
        assert [e.to_json() for e in first[1:]] == [e.to_json() for e in second[1:]]

    def test_kinds_filter_limits_the_stream(self, tmp_path):
        sock = tmp_path / "svc.sock"

        async def scenario():
            service = SweepService()
            server = SweepServer(service, sock)
            await server.start()
            try:
                client = ServiceClient(sock)
                seen = []

                async def watcher():
                    async for event in client.watch(kinds=["job-done"]):
                        seen.append(event)
                        if event.kind == "job-done":
                            break

                task = asyncio.ensure_future(watcher())
                while service.subscriber_count < 1:
                    await asyncio.sleep(0.01)
                job = service.submit(make_sweep(CountingFactory(), xs=(1,)))
                await job.wait()
                await asyncio.wait_for(task, 10)
            finally:
                await server.stop()
            return seen

        seen = run(scenario())
        assert [e.kind for e in seen] == ["watching", "job-done"]

    def test_disconnected_watcher_is_unsubscribed(self, tmp_path):
        sock = tmp_path / "svc.sock"

        async def scenario():
            service = SweepService()
            server = SweepServer(service, sock)
            await server.start()
            try:
                client = ServiceClient(sock)

                async def hang_up_after_first_event():
                    async for event in client.watch():
                        if event.kind != "watching":
                            break  # closes the connection

                task = asyncio.ensure_future(hang_up_after_first_event())
                while service.subscriber_count < 1:
                    await asyncio.sleep(0.01)
                job = service.submit(make_sweep(CountingFactory(), xs=(1,)))
                await job.wait()
                await asyncio.wait_for(task, 10)
                # The server only notices the hang-up on its next send
                # attempt; drive one more event through and the dead
                # queue must be reaped.
                job2 = service.submit(make_sweep(CountingFactory(), xs=(2,)))
                await job2.wait()
                for _ in range(200):
                    if service.subscriber_count == 0:
                        break
                    await asyncio.sleep(0.01)
                return service.subscriber_count
            finally:
                await server.stop()

        assert run(scenario()) == 0

    def test_watch_ends_cleanly_on_server_shutdown(self, tmp_path):
        sock = tmp_path / "svc.sock"

        async def scenario():
            service = SweepService()
            server = SweepServer(service, sock)
            await server.start()
            client = ServiceClient(sock)
            seen = []

            async def watcher():
                async for event in client.watch():
                    seen.append(event)
                # Iterator ends instead of raising when the server goes.

            task = asyncio.ensure_future(watcher())
            while service.subscriber_count < 1:
                await asyncio.sleep(0.01)
            await server.stop()
            await asyncio.wait_for(task, 10)
            return seen

        seen = run(scenario())
        assert [e.kind for e in seen] == ["watching"]

    def test_watch_over_tcp_listener(self, tmp_path):
        sock = tmp_path / "svc.sock"

        async def scenario():
            service = SweepService()
            server = SweepServer(service, sock, tcp="tcp://127.0.0.1:0")
            await server.start()
            try:
                assert server.tcp_address is not None
                client = ServiceClient(str(server.tcp_address))
                pong = await client.ping()
                assert pong.kind == "pong"
                assert pong["watchers"] == 0
                seen = []

                async def watcher():
                    async for event in client.watch():
                        seen.append(event)
                        if event.kind == "job-done":
                            break

                task = asyncio.ensure_future(watcher())
                while service.subscriber_count < 1:
                    await asyncio.sleep(0.01)
                job = service.submit(make_sweep(CountingFactory(), xs=(1, 2)))
                await job.wait()
                await asyncio.wait_for(task, 10)
            finally:
                await server.stop()
            return seen

        seen = run(scenario())
        kinds = [e.kind for e in seen]
        assert kinds[0] == "watching"
        assert kinds[-1] == "job-done"
