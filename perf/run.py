"""End-to-end benchmark: the paper's workloads, timed from outside the program.

    python perf/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]

Each workload (``BENCHMARK.json`` lists them) runs in fresh interpreters
(``perf/worker.py``) on the ``vectorized`` backend, against the public
API and, for ``service``, the real ``python -m repro serve``.  Without
``--workload`` every workload runs in turn.

``--trace 0`` (the default) times ``setup_s`` as the median of three
fresh interpreters reaching their first inputs, then measures for
``--seconds`` untraced and recomputes a sample of outputs on the
reference backend.  ``--trace 1`` splits ``--seconds`` into an untraced,
a span-traced and a profiled third and reports the per-layer metrics;
it also writes ``perf/out/<workload>.trace.json`` (Chrome trace-event
format, loads in Perfetto).

Times are reported in seconds of a reference host: a sampler
(``perf/hostspeed.py``) runs beside each workload, and every unit of
work, op latency and set-up is scaled by the host's mean speed over it.

Each workload's outputs are hashed; for the seed in ``perf/digests.json``
the digest must match the pinned one.  A failed op, a mismatching
recompute or digest makes ``correct`` false and the exit code 1.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"
SPEC = ROOT / "BENCHMARK.json"
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_RUNS = 3
#: A workload that takes longer is killed and the run ends without a result.
BUDGET_S = 170.0


class BenchError(Exception):
    """A worker failed to start, crashed or ran out of time."""


def spawn(args: list[str], stdout) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["REPRO_SIM_BACKEND"] = "vectorized"
    return subprocess.Popen(
        [sys.executable, str(PERF / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=stdout, start_new_session=True,
    )


def finish(proc: subprocess.Popen, deadline: float) -> None:
    """Wait for ``proc``; past ``deadline`` kill its whole process group."""
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker {proc.args[2:]} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {proc.args[2:]} exited with {proc.returncode}")


def time_setup(common: list[str], workdir: Path, deadline: float) -> tuple[int, int]:
    """Monotonic ns from spawning a worker until it is ready."""
    start = time.monotonic_ns()
    proc = spawn([*common, "--phase", "setup", "--workdir", str(workdir)], subprocess.PIPE)
    with proc.stdout:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0.1))
        line = proc.stdout.readline() if ready else b""
        end = time.monotonic_ns()
    finish(proc, deadline)
    if line.strip() != b"ready":
        raise BenchError("setup worker never reported ready")
    shutil.rmtree(workdir, ignore_errors=True)
    return start, end


def run_phase(common: list[str], phase: str, seconds: float, workdir: Path, deadline: float) -> dict:
    out = workdir.with_suffix(".json")
    proc = spawn(
        [*common, "--phase", phase, "--seconds", repr(seconds),
         "--workdir", str(workdir), "--out", str(out)],
        subprocess.DEVNULL,
    )
    finish(proc, deadline)
    result = json.loads(out.read_text())
    out.unlink()
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def stop_sampler(sampler: subprocess.Popen, path: Path) -> list[list]:
    """Stop ``hostspeed.py`` and return its samples (none if it failed)."""
    sampler.stdin.close()
    try:
        sampler.wait(timeout=10)
    except subprocess.TimeoutExpired:
        sampler.kill()
        sampler.wait()
    if sampler.returncode != 0 or not path.exists():
        return []
    samples = json.loads(path.read_text())
    path.unlink()
    return samples


def scaled(phase: dict, host: hostspeed.Timeline) -> dict[str, float]:
    """A phase's throughput and latencies at the reference host's speed."""
    units = phase["units"]
    ops = sum(done for _start, _end, done in units)
    seconds = sum((end - start) / 1e9 * host.speed(start, end) for start, end, _done in units)
    latencies = [ms * host.speed(start, end) for start, end, ms in phase["latencies"]]
    if len(latencies) < 2:
        raise BenchError("fewer than two ops finished")
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "ops_per_s": ops / seconds,
        "op_p50_ms": deciles[4],
        "op_p90_ms": deciles[8],
        "host_speed": host.speed(units[0][0], units[-1][1]),
    }


def end_to_end(setups: list[float], plain: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": plain["ops_per_s"],
        "op_p50_ms": plain["op_p50_ms"],
        "peak_rss_mb": plain["peak_rss_mb"],
    }


def per_layer(workload: str, plain: dict, spans: dict, prof: dict) -> dict[str, float]:
    stats, counts, notes = spans["spans"], spans["counts"], plain["notes"]

    def calls(name):
        return stats.get(name, {}).get("count", 0)

    def p50(name, ns_per_unit):
        return stats.get(name, {}).get("p50_ns", 0.0) / ns_per_unit

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def share(name):
        # Of the time spent in the benchmark's own top-level spans.  Times
        # of calls only some workloads make are shares, never p50s: a time
        # that reads 0 on every run of the other workloads is no measurement.
        total = stats.get(f"{workload}.op", {}).get("total_ns", 0.0)
        return ratio(stats.get(name, {}).get("total_ns", 0.0), total)

    metrics = {f"{layer}.self_share": value for layer, value in prof["self_shares"].items()}
    # Per-layer, so unbounded: a `spectre` run has too few ops for ten of
    # them to lie beyond its 90th percentile (see perf/README.md).
    metrics["op_p90_ms"] = plain["op_p90_ms"]
    metrics["host.speed"] = plain["host_speed"]
    built = counts.get("isa.programs_built", 0)
    metrics.update({
        "isa.programs_built": built,
        "isa.program_reuse": ratio(built, spans["distinct_bodies"]),
        "frontend.run_loop.calls": calls("frontend.run_loop"),
        "frontend.run_loop.p50_us": p50("frontend.run_loop", 1e3),
        "frontend.fast_path_ratio": ratio(
            counts.get("frontend.vectorized.fast", 0), counts.get("frontend.vectorized.calls", 0)
        ),
        "machine.builds": calls("machine.build"),
        "machine.build_ms": p50("machine.build", 1e6),
        "machine.run_loop.calls": calls("machine.run_loop"),
        "machine.run_smt.calls": calls("machine.run_smt"),
        "caches.load.calls": prof["caches_load_calls"],
        "channels.transmit.calls": calls("channels.transmit"),
        "channels.send_bit.calls": calls("channels.send_bit"),
        "channels.send_bit_share": share("channels.send_bit"),
        "channels.calibrate_share": share("channels.calibrate"),
        "spectre.recover_chunk.calls": calls("spectre.recover_chunk"),
        "spectre.recover_chunk_share": share("spectre.recover_chunk"),
        "synth.score.calls": calls("synth.score"),
        "synth.shrink_share": share("synth.shrink"),
        "synth.novel_ratio": notes.get("novel_ratio", 0.0),
        "defense.machines_built": calls("defense.defended_machine"),
        "exec.points": spans["notes"]["exec_points"],
        "exec.pool_efficiency": notes.get("pool_efficiency", 0.0),
        "exec.cache.store.calls": calls("exec.cache.store"),
        "exec.cache.store_share": share("exec.cache.store"),
        "exec.cache.load.calls": calls("exec.cache.load"),
        "exec.cache_hit_ratio": ratio(counts.get("exec.cache.load.hits", 0), calls("exec.cache.load")),
        "trace.overhead": ratio(spans["ops_per_s"], plain["ops_per_s"]),
    })
    for name in ("admit_share", "queue_wait_share", "compute_share", "hit_latency_ratio",
                 "hit_ratio", "dedup_hits.memory", "dedup_hits.disk", "dedup_hits.inflight"):
        metrics[f"service.{name}"] = notes.get(name, 0.0)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    stem = OUT / f"{name}-{os.getpid()}"
    samples_path = stem.with_name(f"{stem.name}-host.json")
    sampler = subprocess.Popen(
        [sys.executable, str(PERF / "hostspeed.py"), str(samples_path)], stdin=subprocess.PIPE,
    )
    try:
        if trace:
            phases = [
                run_phase(common, phase, seconds / 3, stem.with_name(f"{stem.name}-{phase}"), deadline)
                for phase in ("plain", "spans", "profile")
            ]
        else:
            setups = [
                time_setup(common, stem.with_name(f"{stem.name}-setup{index}"), deadline)
                for index in range(SETUP_RUNS)
            ]
            phases = [run_phase(common, "plain", seconds, stem.with_name(f"{stem.name}-plain"), deadline)]
    finally:
        samples = stop_sampler(sampler, samples_path)
    if not samples:
        raise BenchError("the host-speed sampler took no samples")
    host = hostspeed.Timeline(samples)
    for phase in phases:
        phase.update(scaled(phase, host))
    if trace:
        metrics = per_layer(name, *phases)
    else:
        setup_s = [(end - start) / 1e9 * host.speed(start, end) for start, end in setups]
        metrics = end_to_end(setup_s, phases[0])
    attempted = sum(phase["attempted"] for phase in phases)
    failed = sum(phase["failed"] for phase in phases)
    digests = {phase["digest"] for phase in phases}
    pinned = json.loads((PERF / "digests.json").read_text())
    expected = pinned["digests"].get(name) if pinned["seed"] == seed else None
    if len(digests) > 1 or (expected is not None and digests != {expected}):
        failed += 1
    digest = " / ".join(sorted(digests))
    status = "unpinned" if expected is None else ("matches" if digests == {expected} else "MISMATCH")
    return {"digest": f"{digest} ({status})", "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: {ROOT / 'src' / 'repro'} is missing; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    OUT.mkdir(exist_ok=True)
    selected = [args.workload] if args.workload else names
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in selected:
        deadline = time.monotonic() + BUDGET_S
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"perf: {name}: {exc}", file=sys.stderr)
            return 1
        if set(result["metrics"]) != set(units):
            print(f"perf: {name} metrics disagree with {SPEC.name}: "
                  f"{sorted(set(result['metrics']) ^ set(units))}", file=sys.stderr)
            return 1
        for metric, value in result["metrics"].items():
            print(f"{name:15s} {metric:30s} {value:14.4f} {units[metric]}")
            key = metric if args.workload else f"{name}/{metric}"
            total["metrics"][key] = {"value": value, "unit": units[metric]}
        print(f"{name:15s} digest {result['digest']}")
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
