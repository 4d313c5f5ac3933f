"""Fault-injection tests: the crash-safe, multi-tenant sweep service.

The service's new contract, proven fault by fault:

* **crash safety** — a ``serve --state-dir`` process SIGKILL-ed
  mid-sweep, restarted, completes the same job set byte-identically to
  an uninterrupted run (the WAL + shared result cache together make
  recovery exact, not approximate);
* **WAL robustness** — a torn final record (crashed writer) or junk
  bytes (disk rot) cost exactly the damaged record, never the log;
* **isolation** — a client that dies mid-frame takes down its
  connection, not the service;
* **auth** — an unauthenticated or unknown-token client gets a typed
  ``deny`` frame (:class:`ServiceDeniedError`), an over-quota one a
  typed ``quota-exceeded`` frame (:class:`ServiceQuotaError`), and
  admitted work is unaffected;
* **tenancy** — cancel is owner-scoped (guessable ``job-N`` ids cannot
  be swept by another tenant), watch feeds are tenant-scoped unless
  the account is an admin, and the points quota is enforced *before*
  the grid cross-product is materialised;
* **fairness** — tenants share the queue round-robin, so a storm from
  one cannot starve another;
* **clock skew** — a stepped coordinator clock evicts only the
  genuinely silent worker, and the fleet metrics merge survives the
  eviction.

The SIGKILL path drives a real child process through the real CLI; the
rest runs in-process against real sockets.  Fault primitives live in
``tests/_faults.py``.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading

import pytest

from repro.cluster import ClusterWorker, Coordinator
from repro.cluster.protocol import (
    COORDINATOR_FRAMES,
    PROTOCOL_VERSION,
    Register,
    ShardWork,
    Welcome,
    read_frame,
)
from repro.errors import ConfigurationError
from repro.exec import ResultCache
from repro.obs import ManualClock, MetricsRegistry
from repro.service import (
    AuthPolicy,
    ClientAccount,
    JobStore,
    Quota,
    ServiceClient,
    ServiceDeniedError,
    ServiceQuotaError,
    SweepServer,
    SweepService,
    SweepSpec,
)
from repro.service.client import submit_and_stream
from repro.service.endpoints import open_endpoint
from repro.sweep import ParameterSweep
from repro.wire import frame_table, send_frame

from tests._faults import (
    ServiceProcess,
    append_junk,
    poll_metric,
    send_partial_frame,
    truncate_tail,
    wait_for,
    wal_path,
)
from tests._replay import assert_replay


def run(coro):
    return asyncio.run(coro)


def square_factory(point):
    x = point["x"]
    return {"y": float(x * x)}


def make_sweep(xs=(1, 2, 3, 4), base_seed=7) -> ParameterSweep:
    return ParameterSweep(square_factory, {"x": list(xs)}, base_seed=base_seed)


#: A spec whose job runs a couple of seconds — long enough to SIGKILL
#: the service mid-sweep with most points still pending.
CRASH_SPEC = SweepSpec(
    grid={"d": [2, 3, 4, 6]},
    channel="eviction",
    variant="fast",
    bits=16,
    trials=24,
)

#: A tiny spec for requests that only need to be *admitted* quickly.
TINY_SPEC = SweepSpec(
    grid={"d": [2]}, channel="eviction", variant="fast", bits=8
)


def canonical_table(final) -> str:
    """The job-done frame's table as canonical JSON (byte-comparable)."""
    return json.dumps(
        {
            "parameters": final.get("parameters"),
            "metrics": final.get("metrics"),
            "rows": final.get("rows"),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


# ----------------------------------------------------------------------
# crash safety: the acceptance test
# ----------------------------------------------------------------------
class TestCrashSafety:
    def test_sigkill_mid_sweep_recovers_byte_identically(self, tmp_path):
        """Kill ``serve --state-dir`` mid-job; the restart finishes it.

        Run A (uninterrupted) pins the expected table.  Run B is
        SIGKILL-ed after at least one point lands, restarted on the
        same state and cache directories, and must complete the
        recovered job on its own; resubmitting the same spec then
        answers entirely from cache, byte-identical to run A.
        """
        sock_a = str(tmp_path / "a.sock")
        with ServiceProcess(
            sock_a,
            state_dir=str(tmp_path / "state_a"),
            cache_dir=str(tmp_path / "cache_a"),
        ):
            baseline = submit_and_stream(
                sock_a, CRASH_SPEC, events_out=io.StringIO()
            )
        assert baseline.kind == "job-done"
        assert baseline.get("status") == "ok"

        sock_b = str(tmp_path / "b.sock")
        state_b = str(tmp_path / "state_b")
        cache_b = str(tmp_path / "cache_b")
        crashed = ServiceProcess(sock_b, state_dir=state_b, cache_dir=cache_b)
        crashed.start()
        crashed.wait_ready()

        # Stream the submit from a throwaway thread; the SIGKILL will
        # sever its connection mid-stream, which is part of the fault.
        def doomed_submit():
            try:
                submit_and_stream(
                    sock_b, CRASH_SPEC, events_out=io.StringIO()
                )
            except Exception:
                pass  # the crash is the point

        submitter = threading.Thread(target=doomed_submit, daemon=True)
        submitter.start()
        poll_metric(sock_b, "service.points_computed", minimum=1.0)
        crashed.kill()
        submitter.join(timeout=10)

        # The WAL survived the kill with the job still pending.
        assert wal_path(state_b).exists()

        restarted = ServiceProcess(
            sock_b, state_dir=state_b, cache_dir=cache_b
        )
        restarted.start()
        try:
            restarted.wait_ready()
            # The restart reloaded the queue and resumes on its own —
            # no resubmission needed for the job to finish.
            recovered = poll_metric(
                sock_b, "service.jobs_recovered", minimum=1.0
            )
            assert recovered >= 1
            poll_metric(
                sock_b, "service.jobs_finished", minimum=1.0, timeout_s=60
            )

            # Same spec again: every point is already in the shared
            # cache, and the table is byte-identical to run A's.
            final = submit_and_stream(
                sock_b, CRASH_SPEC, events_out=io.StringIO()
            )
        finally:
            restarted.terminate()
        assert final.kind == "job-done"
        assert final.get("status") == "ok"
        assert final.get("computed") == 0
        assert final.get("cache_hits") == final.get("points")
        assert canonical_table(final) == canonical_table(baseline)

    def test_in_process_recovery_replays_byte_identically(self, tmp_path):
        """An unstarted store's queue replays into an identical table.

        The pinned replay fixture holds the uninterrupted run; the
        recovered run must capture byte-identically against it.
        """
        spec = SweepSpec(
            grid={"d": [2, 4]}, channel="eviction", variant="fast", bits=8
        )

        async def uninterrupted():
            service = SweepService(
                cache=ResultCache(str(tmp_path / "cache_ref"))
            )
            service.start()
            try:
                job = service.submit(
                    spec.build_sweep(), spec_payload=spec.to_dict()
                )
                await job.wait()
                return job.result()
            finally:
                await service.stop()

        reference = run(uninterrupted())
        assert_replay("service_crash_recovery", reference)

        # "Crash": jobs hit the WAL but the process dies before any
        # compute — no close, no checkpoint, just an abandoned handle.
        doomed = SweepService(store=JobStore(str(tmp_path / "state")))
        doomed.submit(spec.build_sweep(), spec_payload=spec.to_dict())

        async def recovered_run():
            service = SweepService(
                store=JobStore(str(tmp_path / "state")),
                cache=ResultCache(str(tmp_path / "cache_rec")),
            )
            recovered = await service.recover()
            assert [job.id for job in recovered] == ["job-1"]
            service.start()
            try:
                job = service.jobs["job-1"]
                await job.wait()
                return job.result()
            finally:
                await service.stop()

        table = run(recovered_run())
        assert_replay("service_crash_recovery", table)


# ----------------------------------------------------------------------
# WAL robustness
# ----------------------------------------------------------------------
class TestWalFaults:
    def _seed_store(self, state_dir, jobs: int = 3) -> None:
        service = SweepService(store=JobStore(str(state_dir)))
        for _ in range(jobs):
            service.submit(
                TINY_SPEC.build_sweep(), spec_payload=TINY_SPEC.to_dict()
            )
        service.store.close()

    def test_torn_tail_costs_exactly_the_final_record(self, tmp_path):
        self._seed_store(tmp_path, jobs=3)
        truncate_tail(wal_path(tmp_path), 7)
        state = JobStore(str(tmp_path)).replay()
        assert state.dropped == 1
        assert sorted(state.jobs) == ["job-1", "job-2"]
        assert all(stored.pending for stored in state.jobs.values())

    def test_junk_tail_is_dropped_not_fatal(self, tmp_path):
        self._seed_store(tmp_path, jobs=2)
        append_junk(wal_path(tmp_path))
        state = JobStore(str(tmp_path)).replay()
        assert state.dropped == 1
        assert sorted(state.jobs) == ["job-1", "job-2"]

    def test_unloadable_spec_costs_one_job_not_the_restart(self, tmp_path):
        """A record whose JSON parses but whose spec is damaged is skipped.

        Bit rot *inside* the spec payload (or a schema from another
        version) must cost exactly that job — not raise out of
        ``recover()`` and crash-loop the service on every restart until
        the WAL is hand-edited.  The bad record is counted and the
        closing compaction drops it from the log for good.
        """
        self._seed_store(tmp_path, jobs=2)
        wal = wal_path(tmp_path)
        lines = []
        for line in wal.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record.get("record") == "job" and record["id"] == "job-1":
                record["spec"]["channel"] = "tlb"  # damaged: unknown channel
            lines.append(json.dumps(record))
        wal.write_text("\n".join(lines) + "\n", encoding="utf-8")

        async def scenario():
            registry = MetricsRegistry()
            service = SweepService(
                store=JobStore(str(tmp_path)), registry=registry
            )
            recovered = await service.recover()
            service.start()
            try:
                statuses = await asyncio.gather(
                    *(job.wait() for job in recovered)
                )
            finally:
                await service.stop()
            return recovered, statuses, registry.snapshot()

        recovered, statuses, snapshot = run(scenario())
        assert [job.id for job in recovered] == ["job-2"]
        assert all(status.value == "ok" for status in statuses)
        by_name = {m["name"]: m.get("value") for m in snapshot["metrics"]}
        assert by_name.get("service.recover_dropped") == 1
        assert "job-1" not in JobStore(str(tmp_path)).replay().jobs

    def test_recovery_from_torn_tail_still_serves(self, tmp_path):
        """A service restarted on a torn WAL resumes the surviving jobs."""
        self._seed_store(tmp_path, jobs=2)
        truncate_tail(wal_path(tmp_path), 5)

        async def scenario():
            service = SweepService(store=JobStore(str(tmp_path)))
            recovered = await service.recover()
            service.start()
            try:
                statuses = await asyncio.gather(
                    *(job.wait() for job in recovered)
                )
            finally:
                await service.stop()
            return recovered, statuses

        recovered, statuses = run(scenario())
        assert [job.id for job in recovered] == ["job-1"]
        assert all(status.value == "ok" for status in statuses)


# ----------------------------------------------------------------------
# connection faults
# ----------------------------------------------------------------------
class TestConnectionFaults:
    def test_drop_mid_frame_leaves_service_alive(self, tmp_path):
        sock = str(tmp_path / "svc.sock")

        async def scenario():
            service = SweepService()
            server = SweepServer(service, sock)
            await server.start()
            try:
                # Half a frame, then vanish — three times for luck.
                for _ in range(3):
                    await asyncio.to_thread(send_partial_frame, sock)
                client = ServiceClient(sock)
                pong = await client.ping()
                return pong
            finally:
                await server.stop()

        pong = run(scenario())
        assert pong.kind == "pong"


# ----------------------------------------------------------------------
# auth and quotas
# ----------------------------------------------------------------------
def _policy(**quota_kwargs) -> AuthPolicy:
    return AuthPolicy(
        {"tok-alice": ClientAccount(name="alice", quota=Quota(**quota_kwargs))}
    )


class TestAuth:
    def test_missing_token_raises_typed_deny(self, tmp_path):
        sock = str(tmp_path / "svc.sock")

        async def scenario():
            service = SweepService()
            server = SweepServer(service, sock, auth=_policy())
            await server.start()
            try:
                with pytest.raises(ServiceDeniedError) as missing:
                    await ServiceClient(sock).ping()
                with pytest.raises(ServiceDeniedError) as unknown:
                    await ServiceClient(sock, token="nope").ping()
                pong = await ServiceClient(sock, token="tok-alice").ping()
                return missing.value, unknown.value, pong
            finally:
                await server.stop()

        missing, unknown, pong = run(scenario())
        assert missing.reason == "unauthenticated"
        assert unknown.reason == "unknown-token"
        assert pong.kind == "pong"

    def test_points_per_job_quota_denies_oversized_grid(self, tmp_path):
        sock = str(tmp_path / "svc.sock")
        big = SweepSpec(
            grid={"d": [2, 3, 4, 6]},
            channel="eviction",
            variant="fast",
            bits=8,
        )

        async def scenario():
            service = SweepService()
            server = SweepServer(
                service, sock, auth=_policy(max_points=2)
            )
            await server.start()
            try:
                client = ServiceClient(sock, token="tok-alice")
                with pytest.raises(ServiceQuotaError) as denied:
                    async for _ in client.submit(big):
                        pass
                return denied.value
            finally:
                await server.stop()

        denied = run(scenario())
        assert denied.reason == "points-per-job"

    def test_quota_storm_admits_burst_and_denies_the_rest(self, tmp_path):
        """16 concurrent submits against burst=2: exactly 2 admitted.

        The near-zero refill rate makes the outcome deterministic; the
        14 refusals must be typed, carry the machine-readable reason,
        and tell the client when to retry.
        """
        sock = str(tmp_path / "svc.sock")
        policy = _policy(submit_rate_per_s=0.001, submit_burst=2)

        async def one(index: int):
            client = ServiceClient(sock, token="tok-alice")
            try:
                final = None
                async for event in client.submit(TINY_SPEC):
                    final = event
                return ("ok", final)
            except ServiceQuotaError as exc:
                return ("quota", exc)

        async def scenario():
            service = SweepService()
            server = SweepServer(service, sock, auth=policy)
            await server.start()
            try:
                return await asyncio.gather(*(one(i) for i in range(16)))
            finally:
                await server.stop()

        outcomes = run(scenario())
        admitted = [o for o in outcomes if o[0] == "ok"]
        denied = [o for o in outcomes if o[0] == "quota"]
        assert len(admitted) == 2
        assert len(denied) == 14
        for _, final in admitted:
            assert final.kind == "job-done"
            assert final.get("status") == "ok"
        for _, exc in denied:
            assert exc.reason == "submit-rate"
            assert exc.retry_after_s is not None and exc.retry_after_s > 0

    def test_active_jobs_quota_counts_live_jobs_only(self):
        """Direct admission check: quota frees up as jobs finish."""
        policy = _policy(max_active_jobs=2)
        account = policy.authenticate("tok-alice")
        assert isinstance(account, ClientAccount)
        assert policy.admit_submit(account, points=1, active_jobs=1) is None
        denial = policy.admit_submit(account, points=1, active_jobs=2)
        assert denial is not None and denial.reason == "active-jobs"

    def test_points_quota_applies_before_grid_expansion(
        self, tmp_path, monkeypatch
    ):
        """The points quota bounds the expansion *cost*, not just size.

        A denied submission must never materialise the cross-product:
        admission runs on the grid's axis-length product, so a hostile
        client cannot make the server build an arbitrarily large point
        list just to be told no.
        """
        sock = str(tmp_path / "svc.sock")
        huge = SweepSpec(
            grid={
                "d": list(range(64)),
                "M": list(range(64)),
                "p": list(range(64)),
            },
            channel="eviction",
            variant="fast",
            bits=8,
        )

        def never(self):
            raise AssertionError("grid expanded before quota admission")

        monkeypatch.setattr(SweepSpec, "build_sweep", never)

        async def scenario():
            service = SweepService()
            server = SweepServer(service, sock, auth=_policy(max_points=1024))
            await server.start()
            try:
                client = ServiceClient(sock, token="tok-alice")
                with pytest.raises(ServiceQuotaError) as denied:
                    async for _ in client.submit(huge):
                        pass
                return denied.value
            finally:
                await server.stop()

        assert run(scenario()).reason == "points-per-job"

    def test_policy_file_parses_admin_flag(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(
            json.dumps(
                {
                    "tokens": {
                        "t-a": {"name": "alice"},
                        "t-o": {"name": "ops", "admin": True},
                    }
                }
            ),
            encoding="utf-8",
        )
        policy = AuthPolicy.from_file(path)
        alice = policy.authenticate("t-a")
        ops = policy.authenticate("t-o")
        assert isinstance(alice, ClientAccount) and not alice.admin
        assert isinstance(ops, ClientAccount) and ops.admin

    def test_policy_file_example_loads(self, tmp_path):
        """The docs/service.md policy, plus an anonymous quota."""
        path = tmp_path / "policy.json"
        path.write_text(
            json.dumps(
                {
                    "allow_anonymous": True,
                    "anonymous": {"max_points": 64},
                    "tokens": {
                        "s3cret-alice": {
                            "name": "alice", "max_active_jobs": 4,
                            "max_points": 4096, "submit_rate_per_s": 5,
                            "submit_burst": 10,
                        },
                        "s3cret-bob": {"name": "bob"},
                        "s3cret-ops": {"name": "ops", "admin": True},
                    },
                }
            ),
            encoding="utf-8",
        )
        policy = AuthPolicy.from_file(path)
        assert policy.authenticate("s3cret-alice") == ClientAccount(
            name="alice",
            quota=Quota(
                max_active_jobs=4, max_points=4096, submit_rate_per_s=5.0,
                submit_burst=10,
            ),
        )
        assert policy.authenticate("s3cret-bob") == ClientAccount(name="bob")
        assert policy.authenticate("s3cret-ops") == ClientAccount(
            name="ops", admin=True
        )
        assert policy.allow_anonymous
        assert policy.authenticate(None) == ClientAccount(
            name="anonymous", quota=Quota(max_points=64)
        )

    @pytest.mark.parametrize(
        ("payload", "field"),
        [
            ({"allow_anonymous": "false"}, "allow_anonymous"),
            ({"tokens": {"t1": {"name": "bob", "admin": "false"}}}, "admin"),
            ({"tokens": {"t1": {"name": "bob", "max_point": 10}}}, "max_point"),
            ({"tokens": {"t1": {"name": "bob", "max_points": 10.5}}}, "max_points"),
        ],
        ids=["string-allow-anonymous", "string-admin", "unknown-key", "fractional-count"],
    )
    def test_policy_file_is_decoded_strictly(self, tmp_path, payload, field):
        """A malformed policy fails closed, naming the field, rather than
        loading with anonymous access, an admin or no quota."""
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigurationError, match=field):
            AuthPolicy.from_file(path)

    def test_serve_refuses_a_malformed_policy_file(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        path = tmp_path / "policy.json"
        path.write_text(
            json.dumps(
                {
                    "allow_anonymous": "false",
                    "tokens": {
                        "t1": {"name": "bob", "admin": "false", "max_point": 10}
                    },
                }
            ),
            encoding="utf-8",
        )
        async def serve_forever(self):
            """Return at once should the policy ever load."""

        monkeypatch.setattr(SweepServer, "serve_forever", serve_forever)
        monkeypatch.chdir(tmp_path)
        code = main(
            ["serve", "--auth", str(path), "--no-cache", "--socket", "svc.sock"]
        )
        assert code == 1
        assert "allow_anonymous" in capsys.readouterr().err


# ----------------------------------------------------------------------
# tenant isolation
# ----------------------------------------------------------------------
def _tenant_policy() -> AuthPolicy:
    return AuthPolicy(
        {
            "tok-alice": ClientAccount(name="alice"),
            "tok-bob": ClientAccount(name="bob"),
            "tok-ops": ClientAccount(name="ops", admin=True),
        }
    )


class TestTenantIsolation:
    """Auth isolates tenants: cancel and watch are owner-scoped."""

    def test_cancel_is_owner_scoped(self, tmp_path):
        """Job ids are guessable, so cancel must check ownership.

        bob sweeping alice's (predictable) job id gets a typed
        ``not-owner`` deny; alice cancels her own job, the admin
        account cancels anyone's, and unknown ids still answer
        ``ok: false``.
        """
        sock = str(tmp_path / "svc.sock")
        gate = threading.Event()

        def gated(point):
            gate.wait(10)
            return {"y": float(point["x"])}

        async def scenario():
            service = SweepService(workers=2)
            server = SweepServer(service, sock, auth=_tenant_policy())
            await server.start()
            try:
                alices = service.submit(
                    ParameterSweep(gated, {"x": [1]}), client="alice"
                )
                bobs = service.submit(
                    ParameterSweep(gated, {"x": [2]}), client="bob"
                )
                with pytest.raises(ServiceDeniedError) as cross:
                    await ServiceClient(sock, token="tok-bob").cancel(
                        alices.id
                    )
                own = await ServiceClient(sock, token="tok-alice").cancel(
                    alices.id
                )
                admin = await ServiceClient(sock, token="tok-ops").cancel(
                    bobs.id
                )
                unknown = await ServiceClient(sock, token="tok-bob").cancel(
                    "job-999"
                )
                gate.set()
                await asyncio.gather(alices.wait(), bobs.wait())
                return cross.value, own, admin, unknown
            finally:
                gate.set()
                await server.stop()

        cross, own, admin, unknown = run(scenario())
        assert cross.reason == "not-owner"
        assert own is True
        assert admin is True
        assert unknown is False

    def test_watch_is_tenant_scoped(self, tmp_path):
        """A non-admin watcher only sees its own jobs; an admin sees all.

        bob's job runs *first*, so if alice's feed were unscoped his
        ``job-done`` (result rows and all) would reach her before her
        own job even starts.
        """
        sock = str(tmp_path / "svc.sock")

        async def collect(token: str, stop_after: int):
            seen = []
            async for event in ServiceClient(sock, token=token).watch():
                if event.kind == "watching":
                    continue
                seen.append(event)
                if event.kind == "job-done":
                    stop_after -= 1
                    if stop_after == 0:
                        break
            return seen

        async def scenario():
            service = SweepService()
            server = SweepServer(service, sock, auth=_tenant_policy())
            await server.start()
            try:
                alice_feed = asyncio.ensure_future(collect("tok-alice", 1))
                ops_feed = asyncio.ensure_future(collect("tok-ops", 2))
                while service.subscriber_count < 2:
                    await asyncio.sleep(0.01)
                bob_job = service.submit(make_sweep(xs=(1,)), client="bob")
                await bob_job.wait()
                alice_job = service.submit(make_sweep(xs=(2,)), client="alice")
                await alice_job.wait()
                alice_events, ops_events = await asyncio.gather(
                    asyncio.wait_for(alice_feed, 10),
                    asyncio.wait_for(ops_feed, 10),
                )
                return bob_job.id, alice_job.id, alice_events, ops_events
            finally:
                await server.stop()

        bob_id, alice_id, alice_events, ops_events = run(scenario())
        assert {e["job"] for e in alice_events} == {alice_id}
        assert {e["job"] for e in ops_events} == {bob_id, alice_id}


# ----------------------------------------------------------------------
# multi-tenant fairness
# ----------------------------------------------------------------------
class TestFairShare:
    def test_queue_interleaves_tenants_round_robin(self):
        """alice's backlog cannot starve bob: service order is A B A A."""

        async def scenario():
            service = SweepService(workers=1)
            a1 = service.submit(make_sweep(xs=(1,)), client="alice")
            a2 = service.submit(make_sweep(xs=(2,)), client="alice")
            a3 = service.submit(make_sweep(xs=(3,)), client="alice")
            b1 = service.submit(make_sweep(xs=(4,)), client="bob")
            service.start()
            try:
                await asyncio.gather(
                    *(job.wait() for job in (a1, a2, a3, b1))
                )
            finally:
                await service.stop()
            return [a1, a2, a3, b1]

        jobs = run(scenario())

        def scheduled_seq(job) -> int:
            for event in job.events:
                if event.kind == "scheduled":
                    return event["seq"]
            raise AssertionError(f"{job.id} never scheduled")

        order = sorted(jobs, key=scheduled_seq)
        assert [job.id for job in order] == [
            jobs[0].id,  # alice-1: first in, served first
            jobs[3].id,  # bob-1: bob has waited longest per served turn
            jobs[1].id,  # alice-2
            jobs[2].id,  # alice-3
        ]


# ----------------------------------------------------------------------
# clock skew (cluster fabric)
# ----------------------------------------------------------------------
class TestClockSkew:
    def test_clock_step_evicts_only_the_silent_worker(self):
        """A forward clock step (NTP-style) during a run.

        The zombie registered before the step and never spoke again —
        it must be evicted.  The live worker's frames re-stamp it at
        the stepped clock, so it survives, absorbs the redispatch, and
        its shipped metrics still merge into the fleet registry.
        """
        clock = ManualClock()
        registry = MetricsRegistry()
        events = []
        sweep = make_sweep(xs=range(4))

        async def scenario():
            pending = list(enumerate(sweep.points()))
            coordinator = Coordinator(
                pending,
                square_factory,
                shard_size=2,
                heartbeat_timeout=5.0,
                retry_backoff_s=0.02,
                steal_after_s=None,
                clock=clock,
                registry=registry,
                on_event=events.append,
            )
            address = await coordinator.start("tcp://127.0.0.1:0")

            # The zombie: registers at t=0, accepts a shard, goes dark.
            reader, writer = await open_endpoint(address)
            await send_frame(
                writer,
                Register(worker="zombie", slots=1, version=PROTOCOL_VERSION),
            )
            welcome = await read_frame(reader, frame_table(Welcome))
            assert isinstance(welcome, Welcome)
            shard_msg = await read_frame(reader, COORDINATOR_FRAMES)
            assert isinstance(shard_msg, ShardWork)

            # The clock steps past the heartbeat window, then a live
            # worker joins (its frames are stamped post-step).
            clock.advance(60.0)
            worker = asyncio.ensure_future(
                ClusterWorker(
                    address,
                    name="live",
                    heartbeat_interval=0.05,
                    registry=MetricsRegistry(),
                    ship_metrics=True,
                ).run()
            )
            try:
                # Redispatch backoff is measured on the same (manual)
                # clock: nudge it once the eviction lands so the
                # requeued shard becomes eligible.
                async def eviction_observed():
                    while not any(e.kind == "worker-lost" for e in events):
                        await asyncio.sleep(0.02)

                await asyncio.wait_for(eviction_observed(), 15)
                clock.advance(1.0)
                results = await asyncio.wait_for(coordinator.results(), 30)
            finally:
                await coordinator.stop()
                worker.cancel()
                await asyncio.gather(worker, return_exceptions=True)
                writer.close()
            return results

        results = run(scenario())
        assert len(results) == 4
        evicted = [
            e
            for e in events
            if e.kind == "worker-lost"
            and "heartbeat" in str(e.get("reason"))
        ]
        assert any(e["worker"] == "zombie" for e in evicted)
        assert not any(e["worker"] == "live" for e in evicted)
        names = {m["name"] for m in registry.snapshot()["metrics"]}
        assert "worker.points_done" in names
        assert "cluster.snapshots_merged" in names
