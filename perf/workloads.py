"""The five pinned workloads of the end-to-end benchmark.

Every input comes from ``--seed`` through :func:`repro.rng.derive_seed`;
the program only ever sees the generated machine seeds, messages,
secrets and specs.  A workload runs whole *units* (a pass over its grid,
a campaign, a sweep) until the time budget is spent, always at least
``min_units`` of them: the sha256 digest of the outputs covers exactly
those, so it is the same for every run of a seed.  After timing,
:meth:`Workload.check` recomputes a seeded sample of the outputs on the
``reference`` simulator backend, in process and untimed; a mismatch
counts as a failed op.

Why each workload exists (see ``perf/README.md``):

* ``channels`` — Tables III–V as users run them; the vectorized fast
  path mostly falls back, so ``isa``, the reference interpreter and
  ``machine`` do the work.
* ``spectre`` — Table VII; the fast path hits and ``caches`` dominates,
  the workload that bypasses ISA and fast-path-coverage work.
* ``synth`` — every candidate is a new program, so per-program memos
  never get reuse; it also runs the ``defense`` stacks.
* ``sweep-parallel`` — the only workload with the process pool and
  result-cache stores on the path.
* ``service`` — the scheduler, dedup, wire protocol and cache reads of a
  real ``python -m repro serve`` on a Unix socket.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.rng import derive_seed

__all__ = ["WORKLOADS", "Workload"]

ROOT = Path(__file__).resolve().parent.parent


def canonical(value) -> str:
    """One output as canonical JSON; floats keep every digit."""
    return value if isinstance(value, str) else json.dumps(
        value, sort_keys=True, separators=(",", ":")
    )


@contextlib.contextmanager
def reference_backend():
    """Run the enclosed code on the reference interpreter."""
    from repro.frontend.backends import set_default_backend

    previous = set_default_backend("reference")
    try:
        yield
    finally:
        set_default_backend(previous)


class Workload:
    """One workload: seeded inputs, the unit loop, and output checks."""

    name = ""
    #: Units run whatever the time budget; the digest covers them.
    min_units = 1
    #: Outputs recomputed on the reference backend after timing.
    check_sample = 8

    def __init__(self, seed: int, workdir: Path, phase: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.phase = phase
        #: Set by the worker in the ``spans`` phase.
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: ``[start ns, end ns, ms]`` of every op that finished: its
        #: unscaled latency and the monotonic interval it ran in, which
        #: ``run.py`` scales it by the host's speed over.
        self.latencies: list[list] = []
        #: ``[start ns, end ns, ops completed]`` of every unit.
        self.units: list[list[int]] = []
        self.notes: dict[str, float] = {}
        self.digest = hashlib.sha256()
        #: ``(recompute, expected output)`` of every op, for the sample.
        self.done: list[tuple] = []

    # -- to provide ---------------------------------------------------
    def prepare(self) -> None:
        """Import the layers and generate the first unit's inputs."""

    def run_unit(self, unit: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever :meth:`prepare` started."""

    # -- shared -------------------------------------------------------
    def measure(self, seconds: float) -> None:
        """Run units until ``seconds`` have passed, noting each one."""
        start = time.perf_counter()
        unit = 0
        while unit < self.min_units or time.perf_counter() - start < seconds:
            completed = self.attempted - self.failed
            began = time.monotonic_ns()
            self.run_unit(unit)
            self.units.append([began, time.monotonic_ns(), self.attempted - self.failed - completed])
            unit += 1

    def check(self) -> None:
        """Recompute a seeded sample of outputs on the reference backend."""
        if not self.done:
            return
        pick = np.random.default_rng(derive_seed(self.seed, f"perf/{self.name}/check"))
        sample = pick.choice(len(self.done), min(self.check_sample, len(self.done)), replace=False)
        with reference_backend():
            for index in sorted(sample):
                recompute, expected = self.done[index]
                try:
                    again = canonical(recompute())
                except Exception as exc:  # a failed recompute is a failed op
                    self.fail(f"check {index}", exc)
                    continue
                if again != expected:
                    self.fail(f"check {index}", f"output differs: {expected} != {again}")

    def fail(self, where: str, error) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{self.name} {where}: {error!r}")

    def span(self, name: str, op: str | None = None):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, "perf", op)

    def output(self, unit: int, value) -> str:
        text = canonical(value)
        if unit < self.min_units:
            self.digest.update(text.encode() + b"\n")
        return text

    def op(self, unit: int, index: int, compute) -> None:
        """Run and time one op; ``compute`` returns its JSON-safe output."""
        self.attempted += 1
        start = time.monotonic_ns()
        try:
            with self.span(f"{self.name}.op", f"{self.name}/{unit}/{index}"):
                value = compute()
        except Exception as exc:  # one failed op must not end the run
            self.fail(f"op {unit}/{index}", exc)
            return
        self.add_latency(start, time.monotonic_ns())
        self.done.append((compute, self.output(unit, value)))

    def add_latency(self, start_ns: int, end_ns: int) -> None:
        """Note one finished op that ran from ``start_ns`` to ``end_ns``."""
        self.latencies.append([start_ns, end_ns, (end_ns - start_ns) / 1e6])


# ----------------------------------------------------------------------
class Channels(Workload):
    """Tables III–V: every channel family on every Table I machine."""

    name = "channels"
    BITS = 64
    #: Families with the paper's two non-MT encodings; the rest take "fast".
    VARIANTS = {"eviction": ("fast", "stealthy"), "misalignment": ("fast", "stealthy")}

    def prepare(self) -> None:
        from repro.errors import ChannelError
        from repro.machine.machine import Machine
        from repro.machine.specs import ALL_SPECS
        from repro.service.spec import CHANNEL_NAMES, build_channel

        self.Machine, self.build_channel = Machine, build_channel
        self.cells = []
        for spec in ALL_SPECS:
            for family in CHANNEL_NAMES:
                for variant in self.VARIANTS.get(family, ("fast",)):
                    try:
                        build_channel(Machine(spec), family, variant)
                    except ChannelError:  # the machine lacks SMT or RAPL
                        continue
                    self.cells.append((spec, family, variant))
        self.inputs(0)

    def inputs(self, unit: int) -> list[tuple]:
        result = []
        for index, cell in enumerate(self.cells):
            seed = derive_seed(self.seed, f"perf/channels/{unit}/{index}")
            bits = np.random.default_rng(seed).integers(0, 2, self.BITS).tolist()
            result.append((cell, seed, bits))
        return result

    def transmit(self, cell, seed: int, bits: list[int]) -> dict:
        spec, family, variant = cell
        machine = self.Machine(spec, seed=seed)
        result = self.build_channel(machine, family, variant).transmit(bits)
        if len(result.received_bits) != len(bits):
            raise AssertionError(f"received {len(result.received_bits)} of {len(bits)} bits")
        return {
            "cell": f"{spec.name}/{family}/{variant}",
            "received": result.received_string,
            "cycles": result.total_cycles,
            "kbps": result.kbps,
            "error": result.error_rate,
        }

    def run_unit(self, unit: int) -> None:
        for index, (cell, seed, bits) in enumerate(self.inputs(unit)):
            self.op(unit, index, lambda c=cell, s=seed, b=bits: self.transmit(c, s, b))


class Spectre(Workload):
    """Table VII: Spectre v1 through all six channels, plus Spectre v2."""

    name = "spectre"
    #: Its attacks mostly stay on the vectorized fast path, so they take
    #: several times longer on the reference backend: three keep the
    #: recompute within a few seconds.
    check_sample = 3
    SECRET_BYTES = 8
    #: The frontend channel's margin is tens of cycles, so it majority-votes
    #: over several transient attempts, as the Table VII harness does.
    FRONTEND_ATTEMPTS = 8

    def prepare(self) -> None:
        from repro.machine.machine import Machine
        from repro.machine.specs import GOLD_6226
        from repro.scenarios import SPECTRE_V2, runners
        from repro.spectre import ALL_SPECTRE_CHANNELS, FrontendDsbChannel, SpectreV1Attack

        self.Machine, self.spec, self.Attack = Machine, GOLD_6226, SpectreV1Attack
        self.v2, self.runners = SPECTRE_V2, runners
        self.channels = [
            (cls, self.FRONTEND_ATTEMPTS if cls is FrontendDsbChannel else 1)
            for cls in ALL_SPECTRE_CHANNELS
        ]
        self.inputs(0)

    def inputs(self, unit: int) -> tuple[list[tuple], int]:
        attacks = []
        for index, (cls, attempts) in enumerate(self.channels):
            seed = derive_seed(self.seed, f"perf/spectre/{unit}/{index}")
            secret = bytes(np.random.default_rng(seed).integers(0, 256, self.SECRET_BYTES).tolist())
            attacks.append((cls, attempts, seed, secret))
        return attacks, derive_seed(self.seed, f"perf/spectre/{unit}/v2")

    def attack(self, cls, attempts: int, seed: int, secret: bytes) -> dict:
        machine = self.Machine(self.spec, seed=seed)
        report = self.Attack(machine, cls(machine), secret, attempts_per_chunk=attempts).run()
        if len(report.recovered) != len(secret):
            raise AssertionError(f"recovered {len(report.recovered)} of {len(secret)} bytes")
        return {
            "channel": report.channel_name,
            "recovered": report.recovered.hex(),
            "correct": report.chunks_correct,
            "chunks": report.chunks_total,
            "l1": [report.l1.accesses, report.l1.misses],
            "cycles": report.channel_cycles,
        }

    def trial_v2(self, seed: int) -> dict:
        return dataclasses.asdict(self.runners.run_trial(self.v2, seed))

    def run_unit(self, unit: int) -> None:
        attacks, v2_seed = self.inputs(unit)
        for index, args in enumerate(attacks):
            self.op(unit, index, lambda a=args: self.attack(*a))
        self.op(unit, len(attacks), lambda: self.trial_v2(v2_seed))


class Synth(Workload):
    """AMuLeT-style synthesis campaigns; an op is one oracle evaluation."""

    name = "synth"
    BUDGET = 16
    BITS = 24
    #: The default (96) lets a campaign's cost swing with how many of its
    #: findings shrink far; 16 keeps the minimiser on the path but halves
    #: the run-to-run spread of ops_per_s across seeds.
    SHRINK_BUDGET = 16

    def prepare(self) -> None:
        from repro.synth.oracle import LeakageOracle
        from repro.synth.search import SearchConfig, SynthSearch

        self.SearchConfig, self.Search = SearchConfig, SynthSearch
        self.timing = True
        self.evaluated = self.fingerprints = 0
        score = LeakageOracle.score

        # Candidates are scored inside the search, during its rounds, its
        # shrinks and its defense re-scores: time each call at this
        # boundary (two clock reads against tens of milliseconds).
        def timed_score(oracle, *args, **kwargs):
            start = time.monotonic_ns()
            verdict = score(oracle, *args, **kwargs)
            if self.timing:
                self.attempted += 1
                self.add_latency(start, time.monotonic_ns())
            return verdict

        LeakageOracle.score = timed_score
        self.config(0)

    def config(self, unit: int):
        seed = derive_seed(self.seed, f"perf/synth/{unit}")
        return self.SearchConfig(
            seed=seed, budget=self.BUDGET, bits=self.BITS, shrink_budget=self.SHRINK_BUDGET
        )

    def campaign(self, unit: int):
        return self.Search(self.config(unit)).run()

    def run_unit(self, unit: int) -> None:
        try:
            with self.span("synth.op", f"synth/{unit}"):
                report = self.campaign(unit)
        except Exception as exc:  # one failed campaign must not end the run
            self.attempted += 1
            self.fail(f"campaign {unit}", exc)
            return
        self.evaluated += report.evaluated
        self.fingerprints += len(report.fingerprints)
        self.notes["novel_ratio"] = self.fingerprints / self.evaluated
        self.done.append(
            (lambda u=unit: self.campaign(u).to_json(), self.output(unit, report.to_json()))
        )

    def check(self) -> None:
        # A whole campaign is the unit of the determinism contract.
        self.timing = False
        self.done = self.done[:1]
        super().check()


class SweepParallel(Workload):
    """One channel sweep after another through a two-process pool."""

    name = "sweep-parallel"
    JOBS = 2
    TRIALS = 16

    def prepare(self) -> None:
        from repro.exec import ParallelExecutor, ResultCache
        from repro.service.spec import SweepSpec

        self.SweepSpec, self.Executor = SweepSpec, ParallelExecutor
        # Fresh and never re-read: every access is a cache write.
        self.cache = ResultCache(self.workdir / "cache")
        self.compute_s = self.wall_s = 0.0
        self.spec(0)

    def spec(self, unit: int):
        return self.SweepSpec(
            grid={"d": list(range(1, 9))},
            channel="eviction",
            bits=48,
            trials=self.TRIALS,
            base_seed=derive_seed(self.seed, f"perf/sweep-parallel/{unit}"),
        )

    def run_unit(self, unit: int) -> None:
        sweep = self.spec(unit).build_sweep()
        points = len(sweep.points())
        self.attempted += points
        start = time.monotonic_ns()
        try:
            with self.span("sweep-parallel.op", f"sweep-parallel/{unit}"):
                table = sweep.run(self.Executor(jobs=self.JOBS), cache=self.cache)
        except Exception as exc:  # one failed sweep must not end the run
            self.failed += points - 1
            self.fail(f"sweep {unit}", exc)
            return
        end = time.monotonic_ns()
        stats = sweep.last_stats
        computed = [t.elapsed_s for t in stats.timings if not t.cached]
        # Point times are the executor's own, taken in the pool worker:
        # from this process only the sweep's start and end are visible.
        self.latencies.extend([start, end, s * 1e3] for s in computed)
        self.compute_s += sum(computed)
        self.wall_s += stats.elapsed_s
        self.notes["pool_efficiency"] = self.compute_s / (self.wall_s * self.JOBS)
        for result in table.results:
            point, metrics = result.point, dict(result.metrics)
            expected = self.output(unit, {
                "values": point.values, "trial": point.trial, "seed": point.seed,
                "metrics": metrics,
            })
            self.done.append((
                lambda f=sweep.factory, p=point: {
                    "values": p.values, "trial": p.trial, "seed": p.seed, "metrics": dict(f(p)),
                },
                expected,
            ))


class Service(Workload):
    """Closed-loop bursts of two clients against ``python -m repro serve``."""

    name = "service"
    CLIENTS = 2
    #: Jobs each client submits per unit, each once the last is done.
    JOBS_PER_UNIT = 8
    #: From its 5th job on, every 4th job of a client resubmits one of its
    #: own finished specs, so a quarter of the load is cache hits.
    RESUBMIT_EVERY = 4
    READY_TIMEOUT_S = 60.0

    def prepare(self) -> None:
        from repro.errors import ReproError
        from repro.service.client import ServiceClient
        from repro.service.spec import SweepSpec

        self.Client, self.SweepSpec, self.ReproError = ServiceClient, SweepSpec, ReproError
        #: Per client: its jobs that computed new specs, and what picks
        #: the one it resubmits.
        self.fresh = [[] for _ in range(self.CLIENTS)]
        self.picks = [
            np.random.default_rng(derive_seed(self.seed, f"perf/service/{index}/pick"))
            for index in range(self.CLIENTS)
        ]
        #: Unscaled latencies (ms) of cache-hit jobs, and where the
        #: computed jobs' time went.
        self.hit_ms, self.admit_ms, self.queue_ms, self.compute_ms = [], [], [], []
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.socket = str((self.workdir / "sock").relative_to(ROOT))
        serve = [
            "serve", "--backend", "vectorized", "--workers", "2",
            "--socket", self.socket,
            "--cache-dir", str((self.workdir / "cache").relative_to(ROOT)),
        ]
        if self.phase in ("spans", "profile"):
            launcher = [str(Path(__file__).with_name("served.py")), "--mode", self.phase,
                        "--spool", str(self.workdir / "spool"), "--"]
        else:
            launcher = ["-m", "repro"]
        self.log = open(self.workdir / "server.log", "w")
        self.server = subprocess.Popen(
            [sys.executable, *launcher, *serve], cwd=ROOT, stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        asyncio.run(self.wait_ready())
        self.spec(0, 0)

    async def wait_ready(self) -> None:
        deadline = time.monotonic() + self.READY_TIMEOUT_S
        while True:
            if self.server.poll() is not None:
                raise RuntimeError(f"server exited with {self.server.returncode}")
            try:
                await self.Client(self.socket, timeout_s=5).ping()
                return
            except self.ReproError:
                if time.monotonic() > deadline:
                    raise
                await asyncio.sleep(0.02)

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None and server.poll() is None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=20)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        if getattr(self, "log", None) is not None:
            self.log.close()

    def spec(self, client: int, number: int):
        return self.SweepSpec(
            grid={"d": [2, 4, 6]},
            bits=32,
            base_seed=derive_seed(self.seed, f"perf/service/{client}/{number}"),
        )

    def run_unit(self, unit: int) -> None:
        async def burst():
            return await asyncio.gather(
                *(self.client(index, unit) for index in range(self.CLIENTS))
            )

        for jobs in asyncio.run(burst()):
            for job in jobs:
                self.record(unit, job)

    def measure(self, seconds: float) -> None:
        super().measure(seconds)
        snapshot = asyncio.run(self.Client(self.socket, timeout_s=30).metrics()).get("snapshot")
        self.summarize(snapshot.get("metrics", []) if isinstance(snapshot, dict) else [])

    async def client(self, index: int, unit: int) -> list[dict]:
        client = self.Client(self.socket, timeout_s=60)
        jobs: list[dict] = []
        for number in range(unit * self.JOBS_PER_UNIT, (unit + 1) * self.JOBS_PER_UNIT):
            op = f"service/{index}/{number}"
            if number >= self.RESUBMIT_EVERY and number % self.RESUBMIT_EVERY == 0:
                fresh = self.fresh[index]
                origin = fresh[int(self.picks[index].integers(len(fresh)))]
                job = await self.job(client, origin["spec"], op)
                job["origin"] = origin
            else:
                job = await self.job(client, self.spec(index, number), op)
                self.fresh[index].append(job)
            jobs.append(job)
        return jobs

    async def job(self, client, spec, op: str) -> dict:
        job = {"spec": spec, "op": op, "marks": {}, "points_s": [], "error": None,
               "status": None, "rows": None, "hit": False}
        job["start"] = time.monotonic_ns()
        try:
            async for event in client.submit(spec):
                job["marks"].setdefault(event.kind, time.monotonic_ns())
                if event.kind == "point-done":
                    job["points_s"].append(float(event.get("elapsed_s", 0.0)))
                elif event.kind == "job-done":
                    job["status"] = event.get("status")
                    job["rows"] = event.get("rows")
                    job["hit"] = event.get("cache_hits") == event.get("points")
                elif event.kind == "error":
                    job["error"] = event.get("message")
        except self.ReproError as exc:
            job["error"] = str(exc)
        job["end"] = time.monotonic_ns()
        return job

    def record(self, unit: int, job: dict) -> None:
        """Count, check and time one finished job."""
        self.attempted += 1
        if job["error"] is not None or job["status"] != "ok":
            self.fail(job["op"], job["error"] or job["status"])
            return
        origin = job.get("origin")
        if origin is not None and canonical(job["rows"]) != canonical(origin["rows"]):
            self.fail(job["op"], "resubmitted job returned different rows")
            return
        rows = self.output(unit, job["rows"])
        if job["hit"]:
            self.hit_ms.append((job["end"] - job["start"]) / 1e6)
        else:
            marks = job["marks"]
            self.add_latency(job["start"], job["end"])
            self.admit_ms.append((marks["submitted"] - job["start"]) / 1e6)
            self.queue_ms.append((marks["scheduled"] - marks["submitted"]) / 1e6)
            self.compute_ms.append(sum(job["points_s"]) * 1e3)
            self.done.append((lambda s=job["spec"]: s.build_sweep().run().rows(), rows))
        self.trace(job)

    def summarize(self, server_metrics: list[dict]) -> None:
        # Shares of the computed jobs' summed latency, not times: every
        # per-layer metric is reported on every workload, and a time that
        # only the service has would read 0 on all the others.
        computed_ms = [ms for _start, _end, ms in self.latencies]
        busy = sum(computed_ms)
        self.notes.update({
            "admit_share": sum(self.admit_ms) / busy if busy else 0.0,
            "queue_wait_share": sum(self.queue_ms) / busy if busy else 0.0,
            "compute_share": sum(self.compute_ms) / busy if busy else 0.0,
            "hit_latency_ratio": _p50(self.hit_ms) / _p50(computed_ms) if self.hit_ms else 0.0,
        })
        claimed = hits = 0
        for metric in server_metrics:
            if metric["name"] == "service.points_claimed":
                claimed += metric["value"]
            elif metric["name"] == "service.dedup_hits":
                source = metric["tags"].get("source", "")
                self.notes[f"dedup_hits.{source}"] = metric["value"]
                hits += metric["value"]
            elif metric["name"] == "exec.points":
                self.notes["exec_points"] = self.notes.get("exec_points", 0) + metric["value"]
        self.notes["hit_ratio"] = hits / claimed if claimed else 0.0

    def trace(self, job: dict) -> None:
        """Client-side spans of one job, from its event arrival times."""
        if self.tracer is None:
            return
        marks, op = job["marks"], job["op"]
        parent = self.tracer.record("service.op", "perf", op, job["start"], job["end"])
        bounds = [("service.admit", job["start"], marks["submitted"]),
                  ("service.queue_wait", marks["submitted"], marks["scheduled"]),
                  ("service.run", marks["scheduled"], job["end"])]
        for name, start, end in bounds:
            self.tracer.record(name, "service", op, start, end, parent=parent)


def _p50(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


WORKLOADS = {
    cls.name: cls for cls in (Channels, Spectre, Synth, SweepParallel, Service)
}
