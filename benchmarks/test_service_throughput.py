"""Service benchmark — cross-job dedup and cache-warm resubmission.

Submits a fleet of overlapping Figure-11-style d-sweeps to one
:class:`~repro.service.service.SweepService` and reports how much work
the dedup layer saved: the union of the grids executes once, every
overlap is shared, and a cache-warm resubmission on a *fresh* service
(cold in-memory memo, same on-disk :class:`ResultCache`) completes with
zero executions.
"""

from __future__ import annotations

import asyncio
import os
import tempfile

from _harness import format_table, run_and_report

from repro.exec import ResultCache
from repro.service import JobStatus, SweepService, SweepSpec

BASE_SEED = 2200

#: Overlapping d-grids, as submitted by concurrent clients studying
#: neighbouring slices of the same parameter space.
JOB_GRIDS = [
    [1, 2, 4, 6],
    [2, 4, 6, 8],
    [3, 4, 6, 8],
    [1, 3, 5, 7],
]


def spec_for(d_values: list, label: str) -> SweepSpec:
    return SweepSpec(
        grid={"d": d_values},
        machine="Gold 6226",
        channel="eviction",
        variant="fast",
        bits=32,
        base_seed=BASE_SEED,
        label=label,
    )


async def submit_fleet(service: SweepService) -> list:
    jobs = [
        service.submit(
            spec_for(grid, f"slice-{i}").build_sweep(), label=f"slice-{i}"
        )
        for i, grid in enumerate(JOB_GRIDS)
    ]
    await asyncio.gather(*(job.wait() for job in jobs))
    return jobs


def experiment() -> dict:
    unique_points = len({d for grid in JOB_GRIDS for d in grid})
    total_points = sum(len(grid) for grid in JOB_GRIDS)

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = os.path.join(tmp, "cache")

        async def cold() -> tuple[list, int]:
            cache = ResultCache(cache_dir)
            async with SweepService(cache=cache, workers=4, batch_size=4) as svc:
                jobs = await submit_fleet(svc)
                return jobs, svc.scheduler.executions

        jobs, cold_executions = asyncio.run(cold())

        async def warm() -> tuple[list, int]:
            cache = ResultCache(cache_dir)  # fresh service, same disk cache
            async with SweepService(cache=cache, workers=4, batch_size=4) as svc:
                jobs = await submit_fleet(svc)
                return jobs, svc.scheduler.executions

        warm_jobs, warm_executions = asyncio.run(warm())

    rows = []
    for phase, phase_jobs in (("cold", jobs), ("warm", warm_jobs)):
        for job in phase_jobs:
            done = job.events[-1]
            rows.append(
                (
                    phase,
                    job.label,
                    done["points"],
                    done["computed"],
                    done["shared"],
                    done["cache_hits"],
                )
            )
    print(
        format_table(
            "Sweep service: dedup and cache savings over overlapping jobs",
            ["phase", "job", "points", "computed", "shared", "cache hits"],
            rows,
        )
    )
    print(
        f"\ncold: {cold_executions} executions for {total_points} submitted "
        f"points ({unique_points} unique); warm resubmit: {warm_executions}"
    )
    return {
        "jobs": jobs,
        "warm_jobs": warm_jobs,
        "cold_executions": cold_executions,
        "warm_executions": warm_executions,
        "unique_points": unique_points,
        "total_points": total_points,
    }


def test_service_throughput():
    results = run_and_report("service_throughput", experiment)

    assert all(job.status is JobStatus.DONE for job in results["jobs"])
    assert all(job.status is JobStatus.DONE for job in results["warm_jobs"])

    # Dedup: the union executes at most once even under concurrency
    # (some overlap may be served by the cache rather than in-flight
    # sharing, depending on timing — never executed twice).
    assert results["cold_executions"] == results["unique_points"]
    assert results["cold_executions"] < results["total_points"]

    # Cache-warm resubmission on a fresh service: zero executions, all
    # sixteen submitted points served from disk.
    assert results["warm_executions"] == 0
    for job in results["warm_jobs"]:
        assert job.events[-1]["cache_hits"] == job.events[-1]["points"]

    # Shared/computed/cache accounting is exact for every job.
    for job in results["jobs"] + results["warm_jobs"]:
        done = job.events[-1]
        assert done["computed"] + done["shared"] + done["cache_hits"] == done["points"]
