"""Backend micro-benchmark harness (``python -m repro bench``).

Measures the simulation backends against a **pinned micro suite** of
loop programs that exercise the three frontend delivery regimes the
paper's experiments hammer in steady state:

* ``dsb_resident_8`` — eight aligned blocks that become DSB-resident
  after one cold pass (too many uops for the LSD);
* ``lsd_capture_4``  — four aligned blocks the LSD captures and streams;
* ``lcp_mixed_6``    — four aligned blocks plus two LCP windows, paying
  per-iteration decode stalls and path switches.

Two views are recorded per backend:

* **single-point latency** — the median wall time of one
  ``Machine.run_loop`` call on a persistent machine;
* **points/sec** — throughput of a small :class:`ParameterSweep` over
  the suite under the serial and parallel executors, each point running
  a fresh seeded machine for ``reps`` loop executions (the shape of a
  real sweep point).

Results are written to ``BENCH_frontend.json`` via the observability
snapshot machinery: the harness runs under a private
:class:`~repro.obs.MetricsRegistry`, so the engine's own per-backend
``sim.points`` / ``sim.latency`` instruments land in the same file as
the computed summary.  Before any timing, every backend pair is checked
for byte-identical reports on the suite — a benchmark of a wrong
backend is worthless.

``check_floor`` enforces the committed performance contract: the
vectorized backend must stay at least ``VECTORIZED_SPEEDUP_FLOOR``
times faster than the reference on serial points/sec.  CI runs
``python -m repro bench --check`` so a regression that erodes the fast
path fails the build rather than silently decaying sweeps.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from pathlib import Path

from repro.errors import ExecutionError
from repro.exec import ParallelExecutor, SerialExecutor
from repro.isa.blocks import lcp_block, standard_mix_block
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.obs import MetricsRegistry, use_registry
from repro.sweep import ParameterSweep, SweepPoint

__all__ = [
    "SUITE_NAME",
    "LINT_SUITE_NAME",
    "SYNTH_SUITE_NAME",
    "SERVICE_SUITE_NAME",
    "VECTORIZED_SPEEDUP_FLOOR",
    "pinned_suite",
    "run_bench",
    "run_lint_bench",
    "run_synth_bench",
    "run_service_bench",
    "check_floor",
    "write_bench",
]

SUITE_NAME = "frontend-micro-v1"

LINT_SUITE_NAME = "lint-full-tree-v1"

SYNTH_SUITE_NAME = "synth-micro-v1"

SERVICE_SUITE_NAME = "service-micro-v1"

#: Fixed work for the multi-tenant throughput view: the same 32 tiny
#: jobs every run, only the tenant spread changes — so the three rates
#: are comparable to each other and over time.
_SERVICE_BATCH_JOBS = 32

#: WAL size for the restart-recovery view (pending jobs replayed).
_SERVICE_RECOVERY_JOBS = 32

#: Committed contract: vectorized serial points/sec >= floor * reference.
VECTORIZED_SPEEDUP_FLOOR = 5.0

#: Iteration count high enough that every program extrapolates (the
#: regime sweeps live in), pinned so results stay comparable over time.
_ITERATIONS = 20_000_000

_LAYOUT = BlockChainLayout()


def pinned_suite() -> dict[str, LoopProgram]:
    """The fixed programs every bench run measures (never reorder)."""
    return {
        "dsb_resident_8": LoopProgram(
            [standard_mix_block(_LAYOUT.block_address(s, 40)) for s in range(8)],
            _ITERATIONS,
        ),
        "lsd_capture_4": LoopProgram(
            [standard_mix_block(_LAYOUT.block_address(s, 41)) for s in range(4)],
            _ITERATIONS,
        ),
        "lcp_mixed_6": LoopProgram(
            [standard_mix_block(_LAYOUT.block_address(s, 42)) for s in range(4)]
            + [
                lcp_block(_LAYOUT.block_address(10 + s, 42), lcp_sets=4, mixed=True)
                for s in range(2)
            ],
            _ITERATIONS,
        ),
    }


def _bench_sweep_point(backend: str, reps: int, point: SweepPoint) -> dict:
    """One sweep point: a fresh machine running ``reps`` loop executions.

    Module-level (dispatched via :func:`functools.partial`) so the
    parallel executor can pickle it into worker processes.
    """
    suite = pinned_suite()
    program = suite[point.values["program"]]
    machine = Machine(GOLD_6226, seed=point.seed, backend=backend)
    for _ in range(reps):
        machine.run_loop(program)
    return {"runs": float(reps)}


def _assert_equivalent(backends: tuple[str, ...], suite: dict) -> None:
    """Refuse to benchmark backends that disagree on the suite."""
    for name, program in suite.items():
        reports = []
        for backend in backends:
            machine = Machine(GOLD_6226, seed=7, backend=backend)
            machine.run_loop(program)  # cold
            reports.append(dataclasses.astuple(machine.run_loop(program)))
        for backend, report in zip(backends, reports):
            if report != reports[0]:
                raise ExecutionError(
                    f"backend {backend!r} diverges from {backends[0]!r} "
                    f"on pinned program {name!r}; fix equivalence before "
                    "benchmarking"
                )


def run_bench(
    loops: int = 300,
    reps: int = 200,
    jobs: int = 2,
    backends: tuple[str, ...] = ("reference", "vectorized"),
) -> dict:
    """Run the pinned suite and return the result document.

    ``loops`` is the sample count for single-point latency medians;
    ``reps`` the loop executions per sweep point; ``jobs`` the parallel
    executor's process count.
    """
    suite = pinned_suite()
    registry = MetricsRegistry()
    latency_us: dict[str, dict[str, float]] = {}
    points_per_sec: dict[str, dict[str, float]] = {}
    with use_registry(registry):
        _assert_equivalent(backends, suite)
        for backend in backends:
            latency_us[backend] = {}
            for name, program in suite.items():
                machine = Machine(GOLD_6226, seed=0, backend=backend)
                machine.run_loop(program)  # warm trace/window caches
                samples = []
                for _ in range(loops):
                    start = time.perf_counter()
                    machine.run_loop(program)
                    samples.append(time.perf_counter() - start)
                samples.sort()
                latency_us[backend][name] = samples[len(samples) // 2] * 1e6
        for backend in backends:
            points_per_sec[backend] = {}
            sweep = ParameterSweep(
                functools.partial(_bench_sweep_point, backend, reps),
                {"program": list(suite)},
                trials=2,
                base_seed=1,
            )
            n_points = len(sweep.points())
            for label, executor in (
                ("serial", SerialExecutor()),
                ("parallel", ParallelExecutor(jobs=jobs)),
            ):
                start = time.perf_counter()
                sweep.run(executor=executor)
                elapsed = time.perf_counter() - start
                points_per_sec[backend][label] = n_points / elapsed
    result = {
        "suite": SUITE_NAME,
        "floor": VECTORIZED_SPEEDUP_FLOOR,
        "loops": loops,
        "reps": reps,
        "jobs": jobs,
        "programs": {
            name: {"blocks": len(p.body), "iterations": p.iterations}
            for name, p in suite.items()
        },
        "latency_us": latency_us,
        "points_per_sec": points_per_sec,
        "metrics": registry.snapshot(),
    }
    if "reference" in backends and "vectorized" in backends:
        result["speedup"] = {
            "latency": {
                name: latency_us["reference"][name] / latency_us["vectorized"][name]
                for name in suite
            },
            "serial": points_per_sec["vectorized"]["serial"]
            / points_per_sec["reference"]["serial"],
            "parallel": points_per_sec["vectorized"]["parallel"]
            / points_per_sec["reference"]["parallel"],
        }
    return result


def check_floor(result: dict, floor: float | None = None) -> float:
    """Raise unless the vectorized serial speedup clears ``floor``."""
    floor = VECTORIZED_SPEEDUP_FLOOR if floor is None else floor
    speedup = result.get("speedup", {}).get("serial")
    if speedup is None:
        raise ExecutionError(
            "bench result has no reference/vectorized speedup to check"
        )
    if speedup < floor:
        raise ExecutionError(
            f"vectorized backend speedup {speedup:.2f}x is below the "
            f"committed floor {floor:.1f}x"
        )
    return speedup


def _median_of(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def run_lint_bench(root: str | Path = ".", loops: int = 3) -> dict:
    """Time a full-tree lint run, phase by phase (``--suite lint``).

    The interprocedural ``race-*`` family made the lint run a real
    analysis pass rather than a per-file scan, so its cost
    is now worth pinning: ``BENCH_lint.json`` records the median of
    ``loops`` samples for the total run, the parse phase, the
    call-graph build and each rule family, plus files/sec — a lint
    perf regression shows up as a diff, exactly like a backend one.

    Refuses to time a tree with active violations or parse errors: a
    failing run exercises different code paths (and a dirty tree should
    be fixed, not benchmarked).
    """
    # Local imports: ``bench`` is a subject of the linter, and the
    # layering table grants it the ``lint`` edge for exactly this suite.
    from repro.lint import all_rules, build_call_graph, default_config, run_lint
    from repro.lint.core import Project
    from repro.lint.runner import discover_files

    root = Path(root).resolve()
    config = default_config()
    report = run_lint(root, config=config)
    if report.parse_errors or report.active:
        summary = report.summary()
        raise ExecutionError(
            "refusing to benchmark a tree that does not lint clean: "
            f"{summary['errors']} error(s), {summary['warnings']} "
            f"warning(s), {summary['parse_errors']} parse error(s)"
        )

    files = discover_files(root, config)
    loops = max(1, loops)

    total_samples: list[float] = []
    for _ in range(loops):
        start = time.perf_counter()
        run_lint(root, config=config)
        total_samples.append(time.perf_counter() - start)

    parse_samples: list[float] = []
    for _ in range(loops):
        start = time.perf_counter()
        Project.load(root, files, config=config)
        parse_samples.append(time.perf_counter() - start)

    graph_samples: list[float] = []
    for _ in range(loops):
        project = Project.load(root, files, config=config)
        start = time.perf_counter()
        build_call_graph(project)
        graph_samples.append(time.perf_counter() - start)

    families: dict[str, list[type]] = {}
    for rule_cls in all_rules():
        families.setdefault(rule_cls.family, []).append(rule_cls)
    family_samples: dict[str, list[float]] = {name: [] for name in families}
    for _ in range(loops):
        # A fresh project per sample keeps memoised analyses (the call
        # graph) *inside* the family that builds them.
        project = Project.load(root, files, config=config)
        for name in sorted(families):
            start = time.perf_counter()
            for rule_cls in families[name]:
                for _violation in rule_cls().check(project):
                    pass
            family_samples[name].append(time.perf_counter() - start)

    total_s = _median_of(total_samples)
    return {
        "suite": LINT_SUITE_NAME,
        "loops": loops,
        "files": len(files),
        "rules": len(all_rules()),
        "total_s": round(total_s, 4),
        "files_per_sec": round(len(files) / total_s, 1),
        "phases_s": {
            "parse": round(_median_of(parse_samples), 4),
            "callgraph": round(_median_of(graph_samples), 4),
        },
        "families_s": {
            name: round(_median_of(samples), 4)
            for name, samples in sorted(family_samples.items())
        },
    }


#: The pinned synth-bench campaign (a real discovery run, kept small).
_SYNTH_SEED = 7
_SYNTH_BUDGET = 16
_SYNTH_BITS = 24

#: The campaign's first finding as discovered (pre-shrink) — the
#: minimizer bench re-shrinks it so step counts stay comparable.
_SYNTH_WINNER = {
    "decoy_stride": 19,
    "encode": [
        {
            "count": 4,
            "dsb_set": 28,
            "kind": "std",
            "lcp_sets": 5,
            "misaligned": False,
        }
    ],
    "iterations": 6,
    "probe": [
        {
            "count": 7,
            "dsb_set": 28,
            "kind": "std",
            "lcp_sets": 2,
            "misaligned": False,
        }
    ],
}


def run_synth_bench(
    loops: int = 5,
    jobs: int = 2,
    backends: tuple[str, ...] = ("reference", "vectorized"),
) -> dict:
    """Time the synthesis pipeline on a pinned campaign (``--suite synth``).

    Three costs matter for campaign planning: how long one oracle
    evaluation takes (median of ``loops`` scores of the pinned winner),
    how many candidates/sec a campaign sustains under the serial vs
    parallel executors, and how many oracle evaluations the minimizer
    spends shrinking the pinned winner.  Before any timing, the pinned
    campaign's canonical report is checked byte-identical across
    ``backends`` — the synthesis twin of the frontend suite's
    equivalence gate.
    """
    # Local imports: bench sits above synth in the layering table for
    # exactly this suite (synth itself must stay wall-clock-free).
    from repro.frontend.backends import set_default_backend
    from repro.synth import (
        CandidateProgram,
        LeakageOracle,
        SearchConfig,
        SynthSearch,
        shrink,
    )

    loops = max(1, loops)
    config = SearchConfig(
        seed=_SYNTH_SEED,
        budget=_SYNTH_BUDGET,
        bits=_SYNTH_BITS,
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        reports = {}
        for backend in backends:
            previous = set_default_backend(backend)
            try:
                reports[backend] = SynthSearch(config).run().to_json()
            finally:
                set_default_backend(previous)
        for backend in backends:
            if reports[backend] != reports[backends[0]]:
                raise ExecutionError(
                    f"backend {backend!r} diverges from {backends[0]!r} "
                    f"on the pinned synth campaign; fix equivalence "
                    "before benchmarking"
                )

        oracle = LeakageOracle(config.oracle_config())
        winner = CandidateProgram.from_dict(_SYNTH_WINNER)
        samples = []
        for _ in range(loops):
            start = time.perf_counter()
            oracle.score(winner, seed=_SYNTH_SEED)
            samples.append(time.perf_counter() - start)
        oracle_ms = _median_of(samples) * 1e3

        candidates_per_sec = {}
        for label, executor in (
            ("serial", SerialExecutor()),
            ("parallel", ParallelExecutor(jobs=jobs)),
        ):
            campaign_samples = []
            for _ in range(loops):
                start = time.perf_counter()
                report = SynthSearch(config).run(executor=executor)
                campaign_samples.append(
                    (time.perf_counter() - start) / report.evaluated
                )
            candidates_per_sec[label] = 1.0 / _median_of(campaign_samples)

        start = time.perf_counter()
        minimized, steps = shrink(
            winner, oracle, _SYNTH_SEED, config.shrink_budget
        )
        shrink_s = time.perf_counter() - start

    return {
        "suite": SYNTH_SUITE_NAME,
        "loops": loops,
        "jobs": jobs,
        "campaign": {
            "seed": _SYNTH_SEED,
            "budget": _SYNTH_BUDGET,
            "bits": _SYNTH_BITS,
        },
        "oracle_ms": round(oracle_ms, 3),
        "candidates_per_sec": {
            label: round(rate, 2)
            for label, rate in candidates_per_sec.items()
        },
        "minimizer": {
            "steps": steps,
            "cost_before": winner.cost,
            "cost_after": minimized.cost,
            "seconds": round(shrink_s, 3),
        },
        "metrics": registry.snapshot(),
    }


def run_service_bench(loops: int = 30) -> dict:
    """Time the sweep service's hot paths (``--suite service``).

    Three costs decide how the crash-safe, multi-tenant service feels
    in practice: **submit latency** (one WAL-backed ``submit`` call —
    the append is in the caller's path by design), **jobs/sec** for a
    fixed batch of tiny jobs spread over 1, 4 and 16 tenants (the
    fair-share queue must not tax the single-tenant case), and
    **restart recovery** (replaying a WAL of pending jobs and
    resubmitting them into a fresh service — the outage window a crash
    adds).  All three run on temporary state directories under a
    private registry; nothing leaks into the process metrics.
    """
    import asyncio
    import tempfile

    # Local imports: the layering table grants bench the ``service``
    # edge for exactly this suite.
    from repro.exec import ResultCache
    from repro.service import JobStore, SweepService
    from repro.service.spec import SweepSpec

    loops = max(1, loops)
    spec = SweepSpec(
        grid={"d": [2]}, channel="eviction", variant="fast", bits=8
    )
    payload = spec.to_dict()

    registry = MetricsRegistry()
    with use_registry(registry):
        with tempfile.TemporaryDirectory() as state_dir:
            # -- submit latency: queue + WAL append, no workers running.
            service = SweepService(store=JobStore(state_dir))
            samples = []
            for _ in range(loops):
                sweep = spec.build_sweep()
                start = time.perf_counter()
                service.submit(sweep, spec_payload=dict(payload))
                samples.append(time.perf_counter() - start)
            submit_ms = _median_of(samples) * 1e3

        # -- throughput: the same fixed batch, fanned over more tenants.
        async def _drain(tenants: int, cache_dir: str) -> float:
            service = SweepService(
                cache=ResultCache(cache_dir), batch_size=8, workers=2
            )
            service.start()
            try:
                start = time.perf_counter()
                jobs = [
                    service.submit(
                        spec.build_sweep(), client=f"tenant-{i % tenants}"
                    )
                    for i in range(_SERVICE_BATCH_JOBS)
                ]
                await asyncio.gather(*(job.wait() for job in jobs))
                return time.perf_counter() - start
            finally:
                await service.stop()

        jobs_per_sec = {}
        for tenants in (1, 4, 16):
            with tempfile.TemporaryDirectory() as cache_dir:
                elapsed = asyncio.run(_drain(tenants, cache_dir))
            jobs_per_sec[str(tenants)] = round(
                _SERVICE_BATCH_JOBS / elapsed, 1
            )

        # -- recovery: replay a WAL of pending jobs into a fresh service.
        with tempfile.TemporaryDirectory() as state_dir:
            seeded = SweepService(store=JobStore(state_dir))
            for _ in range(_SERVICE_RECOVERY_JOBS):
                seeded.submit(spec.build_sweep(), spec_payload=dict(payload))
            seeded.store.close()
            recovery_samples = []
            state = None
            for _ in range(max(3, loops // 10)):
                store = JobStore(state_dir)
                fresh = SweepService()
                start = time.perf_counter()
                state = store.replay()
                fresh.restore(state)
                recovery_samples.append(time.perf_counter() - start)
                store.close()
        assert state is not None

    return {
        "suite": SERVICE_SUITE_NAME,
        "loops": loops,
        "submit_ms": round(submit_ms, 3),
        "jobs": _SERVICE_BATCH_JOBS,
        "jobs_per_sec": jobs_per_sec,
        "recovery": {
            "ms": round(_median_of(recovery_samples) * 1e3, 3),
            "jobs": _SERVICE_RECOVERY_JOBS,
            "wal_records": state.records,
        },
        "metrics": registry.snapshot(),
    }


def write_bench(result: dict, path: str | Path) -> Path:
    """Write the result document as stable, diff-friendly JSON."""
    target = Path(path)
    target.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return target
