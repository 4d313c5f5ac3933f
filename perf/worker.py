"""One phase of one workload, in a fresh interpreter started by ``run.py``.

    python perf/worker.py --workload NAME --seed N --seconds S \
        --phase setup|plain|spans|profile --workdir DIR [--out FILE]

``setup`` prints ``ready`` once the workload's layers are imported and
its first inputs exist (for ``service``: once the server answers), then
stops.  ``plain`` measures untraced and runs the correctness sample.
``spans`` and ``profile`` measure under ``tracing.py`` and add the
per-layer material; ``spans`` also writes the Chrome trace.  Every phase
except ``setup`` writes its result as JSON to ``--out``: raw unit times
and latencies, which ``run.py`` scales to the reference host.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import numpy as np

import tracing
from workloads import ROOT, WORKLOADS


def span_summary(tracer: tracing.Tracer) -> dict:
    return {
        name: {
            "count": len(values),
            "p50_ns": float(np.median(values)),
            "total_ns": float(sum(values)),
        }
        for name, values in tracer.durations.items()
    }


def registry_points() -> int:
    from repro.obs import get_registry

    return sum(
        metric["value"]
        for metric in get_registry().snapshot()["metrics"]
        if metric["name"] == "exec.points"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--phase", required=True, choices=("setup", "plain", "spans", "profile"))
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    from repro.frontend.backends import set_default_backend

    set_default_backend("vectorized")
    workload = WORKLOADS[args.workload](args.seed, args.workdir, args.phase)
    tracer = None
    try:
        workload.prepare()
        if args.phase == "setup":
            print("ready", flush=True)
            return 0
        if args.phase != "plain":
            tracer = tracing.install(args.phase, args.workdir / "spool")
        if args.phase == "spans":
            workload.tracer = tracer
        elif args.phase == "profile":
            tracer.start_profile()
        workload.measure(args.seconds)
        if args.phase == "profile":
            tracer.dump()
        elif args.phase == "plain":
            workload.check()
    finally:
        workload.close()

    result = {
        "attempted": workload.attempted,
        "failed": workload.failed,
        "errors": workload.errors,
        "units": workload.units,
        "latencies": workload.latencies,
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024,
        "digest": workload.digest.hexdigest(),
        "notes": {"exec_points": registry_points(), **workload.notes},
    }
    if tracer is not None:
        profiles = tracing.merge_spool(tracer)
        if args.phase == "spans":
            result["spans"] = span_summary(tracer)
            result["counts"] = dict(tracer.counts)
            result["distinct_bodies"] = len(tracer.bodies)
            out_dir = ROOT / "perf" / "out"
            tracing.write_chrome_trace(tracer.spans, out_dir / f"{args.workload}.trace.json")
        else:
            stats = tracing.profile_stats(profiles)
            result["self_shares"] = tracing.layer_self_shares(stats)
            result["caches_load_calls"] = tracing.call_count(stats, "caches/hierarchy.py", "load")
    for error in workload.errors:
        print(error, file=sys.stderr)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
