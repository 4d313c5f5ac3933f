"""Property tests for the sweep service's write-ahead log.

The WAL's whole value is one sentence: *whatever prefix of appends
survives a crash, replay reconstructs exactly the state that prefix
describes*.  Hypothesis earns that sentence the hard way — arbitrary
interleavings of job records and state transitions, truncated at an
arbitrary **byte** offset (not a record boundary), checked against an
independent model of the append semantics:

* every fully-written record is applied; the torn final record (if the
  cut lands mid-line) costs exactly one ``dropped``, never the log;
* a ``state`` line whose ``job`` line was lost is an orphan — counted,
  skipped, and incapable of resurrecting a job;
* the ``job-N`` id watermark is monotone in the surviving records, so a
  recovered service can never reissue an id the log has seen.

A second property pins compaction: replaying a compacted log yields the
same jobs, statuses, and id watermark as the log it replaced, with
nothing dropped — compaction is a *representation* change, not a state
change.

A committed fixture, ``tests/fixtures/wal/jobs.wal``, pins backward
compatibility: it was written by the ``JobStore`` that predates the
typed WAL records (sorted keys, ``"label": null`` spelled out), and it
must keep replaying to the same :class:`WalState`, field for field.

The deterministic half of the file covers GC × persistence with a
:class:`ManualClock`: TTL-expired jobs are compacted out of the WAL
(no ghost replays), while their point results stay in the shared
:class:`ResultCache` — so a restart serves the same spec entirely from
cache under a *fresh* job id (the ``meta`` record keeps the counter).
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ResultCache
from repro.obs import ManualClock, MetricsRegistry
from repro.service import JobStore, SweepService, SweepSpec

# ----------------------------------------------------------------------
# operation strategies
# ----------------------------------------------------------------------
#: Statuses a transition record can carry.  Replay treats the status as
#: an opaque string (only terminal-ness matters downstream), so the set
#: mirrors JobStatus values plus nothing exotic.
_STATUSES = ("queued", "running", "ok", "cancelled", "error")

_job_ids = st.integers(min_value=1, max_value=5).map(lambda n: f"job-{n}")

#: One append: a job record (spec travels whole) or a state transition.
#: State records may precede their job record in the interleaving —
#: that is the orphan case replay must survive.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("job"),
            _job_ids,
            st.integers(min_value=-2, max_value=2),  # priority
            st.sampled_from([None, "nightly"]),  # label
            st.sampled_from(["anonymous", "alice", "bob"]),  # client
        ),
        st.tuples(st.just("state"), _job_ids, st.sampled_from(_STATUSES)),
    ),
    min_size=1,
    max_size=24,
)


def _spec_for(job_id: str) -> dict:
    """A distinct (but fixed per id) spec payload for one job record."""
    return {"grid": {"d": [int(job_id.partition("-")[2])]}, "bits": 8}


def _append_ops(store: JobStore, ops) -> None:
    for op in ops:
        if op[0] == "job":
            _, job_id, priority, label, client = op
            store.record_job(
                job_id,
                _spec_for(job_id),
                priority=priority,
                label=label,
                client=client,
            )
        else:
            _, job_id, status = op
            store.record_state(job_id, status)
    store.close()


def _model(ops):
    """Independent re-statement of the append semantics.

    Returns ``(jobs, orphans, next_index)`` where ``jobs`` maps id ->
    (priority, label, client, status).  A repeated job record resets
    the job (fresh submission under a recycled id starts queued); a
    state record for an unknown id is an orphan.
    """
    jobs: dict[str, tuple] = {}
    orphans = 0
    next_index = 1
    for op in ops:
        if op[0] == "job":
            _, job_id, priority, label, client = op
            jobs[job_id] = (priority, label, client, "queued")
            next_index = max(next_index, int(job_id.partition("-")[2]) + 1)
        else:
            _, job_id, status = op
            if job_id in jobs:
                jobs[job_id] = jobs[job_id][:3] + (status,)
            else:
                orphans += 1
    return jobs, orphans, next_index


class TestWalRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(ops=_ops, data=st.data())
    def test_truncation_at_any_byte_recovers_the_surviving_prefix(
        self, ops, data
    ):
        """Cut the log anywhere; replay equals the model of what survived.

        Each append is exactly one newline-terminated line, so the
        number of newlines in the kept bytes *is* the number of fully
        surviving records — everything after the last newline is the
        torn tail replay must charge to ``dropped`` (exactly once).
        """
        with tempfile.TemporaryDirectory() as tmp:
            store = JobStore(tmp)
            _append_ops(store, ops)
            wal = store.path
            raw = wal.read_bytes()
            offset = data.draw(
                st.integers(min_value=0, max_value=len(raw)), label="cut"
            )
            kept = raw[:offset]
            with open(wal, "r+b") as handle:
                handle.truncate(offset)

            state = JobStore(tmp).replay()

            survived = kept.count(b"\n")
            torn = 1 if kept.rfind(b"\n") + 1 < len(kept) else 0
            jobs, orphans, next_index = _model(ops[:survived])

            assert {
                job_id: (job.priority, job.label, job.client, job.status)
                for job_id, job in state.jobs.items()
            } == jobs
            assert state.records == survived - orphans
            assert state.dropped == torn + orphans
            assert state.next_job_index == next_index
            # Specs travel whole: the surviving jobs replay buildable.
            for job_id, job in state.jobs.items():
                assert job.spec == _spec_for(job_id)

    @settings(max_examples=40, deadline=None)
    @given(ops=_ops)
    def test_compaction_preserves_state_and_drops_nothing(self, ops):
        """compact(replay(log)) replays identically to the log it replaced."""
        with tempfile.TemporaryDirectory() as tmp:
            store = JobStore(tmp)
            _append_ops(store, ops)
            before = JobStore(tmp).replay()

            compactor = JobStore(tmp)
            compactor.compact(
                before.jobs.values(), next_job_index=before.next_job_index
            )
            after = JobStore(tmp).replay()

            assert after.dropped == 0
            assert after.next_job_index == before.next_job_index
            assert {
                job_id: (job.priority, job.label, job.client, job.status)
                for job_id, job in after.jobs.items()
            } == {
                job_id: (job.priority, job.label, job.client, job.status)
                for job_id, job in before.jobs.items()
            }
            # One meta line + one job line each + one state line per
            # non-queued job: compaction is minimal, not just correct.
            lines = [
                json.loads(line)
                for line in compactor.path.read_text().splitlines()
            ]
            assert lines[0] == {
                "record": "meta",
                "next_job_index": before.next_job_index,
            }
            assert len(lines) == 1 + len(before.jobs) + sum(
                1 for job in before.jobs.values() if job.status != "queued"
            )


# ----------------------------------------------------------------------
# a log written before the records were typed
# ----------------------------------------------------------------------
#: Written by ``JobStore.record_job``/``record_state`` before the records
#: were typed: two jobs (one with ``"label": null``), a ``running`` ->
#: ``ok`` transition, an orphaned ``state`` record (job-5 was never
#: logged), an unknown record kind, a third job, and a torn tail.
WAL_FIXTURE = Path(__file__).parent / "fixtures" / "wal"


class TestWalFixture:
    def test_old_log_replays_to_the_pinned_state(self):
        state = JobStore(WAL_FIXTURE).replay()

        assert state.records == 5
        assert state.dropped == 3  # orphan + unknown kind + torn tail
        assert state.next_job_index == 8
        assert list(state.jobs) == ["job-1", "job-2", "job-7"]
        job1, job2, job7 = state.jobs.values()
        assert (job1.status, job1.priority, job1.label, job1.client) == (
            "ok", 2, "a", "alice"
        )
        assert job1.spec == {
            "bits": 8, "channel": "eviction", "grid": {"d": [2, 4]}
        }
        assert (job2.status, job2.priority, job2.label, job2.client) == (
            "queued", 0, None, "anonymous"
        )
        assert job2.spec == {"bits": 8, "grid": {"d": [3]}}
        assert (job7.status, job7.priority, job7.label, job7.client) == (
            "queued", 0, None, "anonymous"
        )
        assert job7.spec == {"bits": 16, "grid": {"d": [6]}, "trials": 2}
        assert [job.id for job in state.pending()] == ["job-2", "job-7"]

    def test_compacting_the_old_log_keeps_its_state(self, tmp_path):
        (tmp_path / JobStore.WAL_NAME).write_bytes(
            (WAL_FIXTURE / JobStore.WAL_NAME).read_bytes()
        )
        before = JobStore(tmp_path).replay()
        JobStore(tmp_path).compact(
            before.jobs.values(), next_job_index=before.next_job_index
        )
        after = JobStore(tmp_path).replay()

        assert (after.records, after.dropped) == (5, 0)
        assert after.next_job_index == before.next_job_index
        assert after.jobs == before.jobs

    def test_spec_key_order_survives_append_and_compaction(self, tmp_path):
        """A recovered job's grid keeps its submitted parameter order, so
        its table has the columns and rows of an uninterrupted run."""
        spec = {"grid": {"x": [1, 2], "d": [4]}, "bits": 8, "channel": "eviction"}
        store = JobStore(tmp_path)
        store.record_job("job-1", spec)
        store.close()
        replayed = JobStore(tmp_path).replay().jobs["job-1"].spec
        assert list(replayed) == list(spec)
        assert list(replayed["grid"]) == ["x", "d"]

        JobStore(tmp_path).compact([JobStore(tmp_path).replay().jobs["job-1"]])
        compacted = JobStore(tmp_path).replay().jobs["job-1"].spec
        assert list(compacted["grid"]) == ["x", "d"]

    def test_lines_that_fail_strict_decoding_are_dropped(self, tmp_path):
        """A wrong-typed field costs its line, exactly like a torn one."""
        (tmp_path / JobStore.WAL_NAME).write_bytes(
            b'{"record":"job","id":"job-2","spec":{"bits":8},"priority":"2"}\n'
            b'{"record":"job","id":"job-3","spec":[8]}\n'
            b'{"record":"meta","next_job_index":0}\n'
            b'{"record":"job","id":"job-1","spec":{"bits":8},"client":"bob"}\n'
            b'{"record":"state","id":"job-1","status":7}\n'
            b'{"record":"state","id":"job-1","status":"running","at":1}\n'
        )
        state = JobStore(tmp_path).replay()

        assert (state.records, state.dropped) == (1, 5)
        assert list(state.jobs) == ["job-1"]
        assert state.jobs["job-1"].client == "bob"
        assert state.jobs["job-1"].status == "queued"
        assert state.next_job_index == 2


# ----------------------------------------------------------------------
# GC x persistence
# ----------------------------------------------------------------------
#: Two cheap real points so the restarted run has cache entries to hit.
_GC_SPEC = SweepSpec(
    grid={"d": [2, 3]}, channel="eviction", variant="fast", bits=8
)


class TestGcPersistence:
    def test_ttl_eviction_compacts_wal_but_keeps_cache(self, tmp_path):
        """Expired jobs leave the WAL; their results stay cached.

        With a :class:`ManualClock` pinning time, a finished job older
        than ``job_ttl_s`` is evicted on the next GC, and the eviction
        *compacts the WAL* — a restart must not replay ghosts.  But the
        point results live in the shared cache, so resubmitting the
        same spec after the restart is all cache hits, under a fresh
        job id (the ``meta`` record preserved the counter).
        """
        state_dir = tmp_path / "state"
        cache_dir = tmp_path / "cache"
        clock = ManualClock()

        async def first_run() -> None:
            service = SweepService(
                cache=ResultCache(cache_dir),
                workers=1,
                job_ttl_s=60.0,
                clock=clock,
                registry=MetricsRegistry(clock=clock),
                store=JobStore(state_dir),
            )
            async with service:
                job = service.submit(
                    _GC_SPEC.build_sweep(), spec_payload=_GC_SPEC.to_dict()
                )
                await job.wait()
            assert job.status.value == "ok"
            assert job.id == "job-1"

            # Finished but young: survives GC, and the WAL knows it.
            assert service.gc() == 0
            assert "job-1" in JobStore(state_dir).replay().jobs

            # Step past the TTL: evicted from the table *and* the log.
            clock.advance(61.0)
            assert service.gc() == 1
            assert "job-1" not in service.jobs
            replayed = JobStore(state_dir).replay()
            assert replayed.jobs == {}
            assert replayed.next_job_index == 2  # meta kept the counter

        asyncio.run(first_run())

        # The cache outlives the job: results were never WAL state.
        assert any(Path(cache_dir).iterdir())

        async def restarted_run() -> None:
            service = SweepService(
                cache=ResultCache(cache_dir),
                workers=1,
                job_ttl_s=60.0,
                clock=clock,
                registry=MetricsRegistry(clock=clock),
                store=JobStore(state_dir),
            )
            recovered = await service.recover()
            assert recovered == []  # nothing pending: GC already settled it
            async with service:
                job = service.submit(
                    _GC_SPEC.build_sweep(), spec_payload=_GC_SPEC.to_dict()
                )
                await job.wait()
            assert job.id == "job-2"  # the evicted id is never reissued
            final = job.events[-1]
            assert final.kind == "job-done"
            assert final["cache_hits"] == 2
            assert final["computed"] == 0

        asyncio.run(restarted_run())
