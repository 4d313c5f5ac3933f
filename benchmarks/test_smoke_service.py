"""Service-layer smoke test.

Drives the in-process :class:`~repro.service.service.SweepService` (no
sockets) over a real channel sweep described by a
:class:`~repro.service.spec.SweepSpec`, the same way ``python -m repro
submit`` jobs arrive.  Two concurrently submitted jobs with overlapping
grids must (a) both finish with correct tables and (b) execute each
unique point at most once — the service's core dedup guarantee, checked
here against the genuine channel factory rather than a test stub.

The full-grid service benchmark (throughput, cache-warm resubmits) is
``test_service_throughput.py``.
"""

from __future__ import annotations

import asyncio

from repro.service import JobStatus, SweepService, SweepSpec

BASE_SEED = 1100


def spec_for(d_values: list) -> SweepSpec:
    return SweepSpec(
        grid={"d": d_values},
        machine="Gold 6226",
        channel="mt-eviction",
        variant="fast",
        bits=16,
        base_seed=BASE_SEED,
    )


def test_smoke_service_dedups_overlapping_jobs():
    async def scenario():
        async with SweepService(workers=2, batch_size=2) as service:
            job_a = service.submit(spec_for([1, 2, 4]).build_sweep())
            job_b = service.submit(spec_for([2, 4, 6]).build_sweep())
            await asyncio.gather(job_a.wait(), job_b.wait())
            return job_a, job_b, service.scheduler.executions

    job_a, job_b, executions = asyncio.run(scenario())
    assert job_a.status is JobStatus.DONE
    assert job_b.status is JobStatus.DONE
    # Union of the grids is {1, 2, 4, 6}: four executions, not six.
    assert executions == 4

    # Both jobs carry full result tables over the real channel metrics.
    rows_a, rows_b = job_a.result().rows(), job_b.result().rows()
    assert [row["d"] for row in rows_a] == [1, 2, 4]
    assert [row["d"] for row in rows_b] == [2, 4, 6]
    for row in rows_a + rows_b:
        assert row["kbps_mean"] > 0
        assert 0.0 <= row["error_mean"] <= 1.0
    # The shared points carry *identical* metrics in both tables.
    by_d_a = {row["d"]: row for row in rows_a}
    by_d_b = {row["d"]: row for row in rows_b}
    for d in (2, 4):
        assert by_d_a[d] == by_d_b[d]

    # Event streams narrate the whole run: every point accounted for,
    # terminal event last, and the dedup visible as shared point-dones.
    for job in (job_a, job_b):
        kinds = [e.kind for e in job.events]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "job-done"
        done = job.events[-1]
        assert done["status"] == "ok"
        assert done["computed"] + done["shared"] + done["cache_hits"] == 3
    total_shared = sum(
        job.events[-1]["shared"] for job in (job_a, job_b)
    )
    assert total_shared == 2  # the {2, 4} overlap computed once


def test_smoke_service_matches_direct_sweep_run():
    """Service-resolved tables equal a plain single-sweep run."""
    reference = spec_for([1, 4]).build_sweep().run()

    async def scenario():
        async with SweepService() as service:
            job = service.submit(spec_for([1, 4]).build_sweep())
            await job.wait()
            return job.result()

    assert asyncio.run(scenario()) == reference
