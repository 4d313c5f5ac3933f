"""Benchmark-side tracing: spans and counts around each layer's entry points.

Nothing under ``src/`` records these spans.  :func:`install` wraps the
public entry points listed in :data:`SPAN_POINTS` at run time, in the
benchmark's own process, in the pool workers it forks and, for the
``service`` workload, in the server (see ``perf/served.py``).  A span is
``(id, parent id, op id, name, layer, start ns, end ns, pid, tid)``; spans
live in memory and are written when a process ends: forked pool workers
and the server spool theirs to a directory the benchmark merges.

A second mode, ``profile``, runs :mod:`cProfile` instead and aggregates
exclusive time by ``repro.<package>``.  The two never run together, so
the profiler's per-call cost never shows in span timings.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import pstats
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

__all__ = [
    "LAYERS",
    "Tracer",
    "call_count",
    "install",
    "layer_self_shares",
    "merge_spool",
    "profile_stats",
    "profile_threads",
    "self_times",
    "write_chrome_trace",
]

#: Packages reported as layers, in the order data flows through them.
LAYERS = (
    "isa", "frontend", "machine", "caches", "measure", "analysis",
    "channels", "spectre", "synth", "defense", "exec", "sweep", "service",
)

#: Spans kept for the Chrome trace; later spans still feed the counts
#: and latency percentiles.
MAX_SPANS = 200_000

#: ``(module, attribute path, span name, layer)`` of every wrapped entry
#: point.  Module-level functions are replaced in every loaded ``repro``
#: module that imported them by name.
SPAN_POINTS = (
    ("repro.frontend.engine", "FrontendEngine.run_loop", "frontend.run_loop", "frontend"),
    ("repro.machine.machine", "Machine.__init__", "machine.build", "machine"),
    ("repro.machine.machine", "Machine.run_loop", "machine.run_loop", "machine"),
    ("repro.machine.machine", "Machine.run_smt", "machine.run_smt", "machine"),
    ("repro.channels.base", "CovertChannel.transmit", "channels.transmit", "channels"),
    ("repro.channels.base", "CovertChannel.calibrate", "channels.calibrate", "channels"),
    ("repro.spectre.attack", "SpectreV1Attack.run", "spectre.attack", "spectre"),
    ("repro.spectre.attack", "SpectreV1Attack.recover_chunk", "spectre.recover_chunk", "spectre"),
    ("repro.scenarios.runners", "run_trial", "scenarios.run_trial", "scenarios"),
    ("repro.synth.search", "SynthSearch.run", "synth.search", "synth"),
    ("repro.synth.oracle", "LeakageOracle.score", "synth.score", "synth"),
    ("repro.synth.search", "shrink", "synth.shrink", "synth"),
    ("repro.defense.evaluation", "defended_machine", "defense.defended_machine", "defense"),
    ("repro.exec.base", "Executor.run", "exec.run", "exec"),
    ("repro.exec.cache", "ResultCache.store", "exec.cache.store", "exec"),
    ("repro.sweep", "ParameterSweep.run", "sweep.run", "sweep"),
)

#: Builtins that only wait (event loop, pool result queues, sleeps);
#: they are left out of the profiled time layer shares divide.
_IDLE_WAITS = (
    "<method 'poll' of 'select.epoll' objects>",
    "<method 'poll' of 'select.poll' objects>",
    "<built-in method select.select>",
    "<method 'acquire' of '_thread.lock' objects>",
    "<method 'acquire' of '_thread.RLock' objects>",
    "<built-in method time.sleep>",
    "<built-in method posix.read>",
    "<built-in method posix.waitpid>",
)


class Tracer:
    """In-memory span and counter store for one process.

    ``mode`` is ``"spans"`` or ``"profile"``.  Forked children start
    with empty stores (:func:`os.register_at_fork`) but keep the forking
    thread's open-span stack, so a pool worker's spans nest under the
    parent span that dispatched the point.
    """

    def __init__(self, mode: str, spool: Path) -> None:
        self.mode = mode
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        self._home_pid = self._child_pid = os.getpid()
        self.profilers: list[cProfile.Profile] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self.spans: list[list] = []
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.bodies: set[int] = set()

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str, op: str | None = None):
        """Record one span; ``op`` starts a new op id, else the parent's."""
        stack = self._stack()
        parent = stack[-1] if stack else (None, None)
        span_id = f"{self.pid}:{next(self._ids)}"
        op_id = op if op is not None else parent[1]
        stack.append((span_id, op_id))
        # Kept from its start, so a kept span's parent is always kept too.
        record = [span_id, parent[0], op_id, name, layer, time.monotonic_ns(), 0,
                  self.pid, threading.get_ident()]
        if len(self.spans) < MAX_SPANS:
            self.spans.append(record)
        try:
            yield
        finally:
            record[6] = time.monotonic_ns()
            stack.pop()
            self.durations[name].append(record[6] - record[5])

    def record(
        self, name: str, layer: str, op: str, start: int, end: int,
        parent: str | None = None,
    ) -> str:
        """Add a finished span measured elsewhere (e.g. across awaits)."""
        span_id = f"{self.pid}:{next(self._ids)}"
        self.durations[name].append(end - start)
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                [span_id, parent, op, name, layer, start, end, self.pid, threading.get_ident()]
            )
        return span_id

    def wrap(self, fn, name: str, layer: str, op_of=None):
        """``fn`` inside a span; ``op_of(args)`` names a new op id."""
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name, layer, op_of(args) if op_of else None):
                return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    def start_profile(self) -> None:
        profiler = cProfile.Profile()
        self.profilers.append(profiler)
        profiler.enable()

    def enter_child(self) -> None:
        """First call in a forked pool worker: own profiler, dump at exit.

        A no-op in the process that installed the tracer, where
        ``ParallelExecutor`` runs a single pending point inline.
        """
        if os.getpid() in (self._home_pid, self._child_pid):
            return
        self._child_pid = os.getpid()
        for inherited in self.profilers:
            inherited.disable()
        self.profilers = []
        if self.mode == "profile":
            self.start_profile()
        # Registered here, not at fork: a multiprocessing child clears its
        # finalizer registry after the fork hooks run.
        multiprocessing.util.Finalize(self, self.dump, exitpriority=10)

    def dump(self) -> None:
        """Write this process's spans, counts and profiles to the spool."""
        for index, profiler in enumerate(self.profilers):
            profiler.disable()
            profiler.dump_stats(str(self.spool / f"{self.pid}-{index}.prof"))
        self.profilers = []
        payload = {
            "spans": self.spans,
            "durations": self.durations,
            "counts": self.counts,
            "bodies": sorted(self.bodies),
        }
        path = self.spool / f"{self.pid}.json"
        path.write_text(json.dumps(payload))


# ----------------------------------------------------------------------
# installing the wrappers
# ----------------------------------------------------------------------
def _replace(module_name: str, path: str, make) -> None:
    """Replace ``module.path`` by ``make(original)`` wherever it is bound."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        setattr(owner, attr, make(owner.__dict__[attr]))
        return
    original = getattr(module, attr)
    replacement = make(original)
    for name, loaded in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and (
            getattr(loaded, attr, None) is original
        ):
            setattr(loaded, attr, replacement)


def _concrete_channels():
    from repro.channels.base import CovertChannel

    importlib.import_module("repro.channels")
    importlib.import_module("repro.synth.oracle")
    pending, seen = [CovertChannel], []
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                pending.append(sub)
    return [cls for cls in seen if "send_bit" in cls.__dict__]


def install(mode: str, spool: Path) -> Tracer:
    """Wrap the layer entry points of this process for ``mode``."""
    tracer = Tracer(mode, spool)

    def run_point(original):
        # Pool entry point, looked up by name when the pickled call is
        # unpickled in the worker; functools.wraps keeps that name.
        if mode == "profile":
            @functools.wraps(original)
            def entry(*args):
                tracer.enter_child()
                return original(*args)
        else:
            traced = tracer.wrap(original, "exec.point", "exec")

            @functools.wraps(original)
            def entry(*args):
                tracer.enter_child()
                return traced(*args)

        return entry

    _replace("repro.exec.parallel", "_run_point", run_point)
    if mode == "profile":
        return tracer

    for module, path, name, layer in SPAN_POINTS:
        _replace(module, path, lambda fn, n=name, l=layer: tracer.wrap(fn, n, l))
    for cls in _concrete_channels():
        setattr(cls, "send_bit", tracer.wrap(cls.__dict__["send_bit"], "channels.send_bit", "channels"))

    batches = itertools.count()
    _replace(
        "repro.service.scheduler",
        "Scheduler._run_batch",
        lambda fn: tracer.wrap(
            fn, "service.batch", "service", op_of=lambda _args: f"batch/{next(batches)}"
        ),
    )

    def cache_load(original):
        traced = tracer.wrap(original, "exec.cache.load", "exec")

        @functools.wraps(original)
        def load(*args, **kwargs):
            entry = traced(*args, **kwargs)
            if entry is not None:
                tracer.counts["exec.cache.load.hits"] += 1
            return entry

        return load

    _replace("repro.exec.cache", "ResultCache.load", cache_load)

    def program_init(original):
        @functools.wraps(original)
        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            tracer.counts["isa.programs_built"] += 1
            tracer.bodies.add(hash(self.body))

        return init

    _replace("repro.isa.program", "LoopProgram.__init__", program_init)

    # Fast-path coverage: a vectorized call that falls back makes a
    # nested reference call on the same thread.
    local = threading.local()

    def vectorized(original):
        @functools.wraps(original)
        def run_loop(*args, **kwargs):
            outer = getattr(local, "fallbacks", None)
            local.fallbacks = 0
            try:
                return original(*args, **kwargs)
            finally:
                tracer.counts["frontend.vectorized.calls"] += 1
                if local.fallbacks == 0:
                    tracer.counts["frontend.vectorized.fast"] += 1
                local.fallbacks = outer

        return run_loop

    def reference(original):
        @functools.wraps(original)
        def run_loop(*args, **kwargs):
            if getattr(local, "fallbacks", None) is not None:
                local.fallbacks += 1
            return original(*args, **kwargs)

        return run_loop

    _replace("repro.frontend.backends.vectorized", "VectorizedBackend.run_loop", vectorized)
    _replace("repro.frontend.backends.reference", "ReferenceBackend.run_loop", reference)
    return tracer


def profile_threads(tracer: Tracer) -> None:
    """Give every thread started from now on its own profiler.

    :mod:`cProfile` only sees the thread that enabled it; the service runs
    its points in a worker thread.
    """
    original = threading.Thread.run

    def run(self):
        profiler = cProfile.Profile()
        tracer.profilers.append(profiler)
        profiler.enable()
        try:
            original(self)
        finally:
            profiler.disable()

    threading.Thread.run = run


# ----------------------------------------------------------------------
# merging and reporting
# ----------------------------------------------------------------------
def merge_spool(tracer: Tracer) -> list[str]:
    """Fold spooled child/server stores into ``tracer``; returns profiles."""
    profiles = []
    for path in sorted(tracer.spool.iterdir()):
        if path.suffix == ".prof":
            profiles.append(str(path))
        elif path.suffix == ".json":
            payload = json.loads(path.read_text())
            room = MAX_SPANS - len(tracer.spans)
            tracer.spans.extend(payload["spans"][: max(room, 0)])
            for name, values in payload["durations"].items():
                tracer.durations[name].extend(values)
            tracer.counts.update(payload["counts"])
            tracer.bodies.update(payload["bodies"])
    return profiles


def self_times(spans: list[list]) -> dict[str, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[5], span[6]))
    result = {}
    for span in spans:
        start, end = span[5], span[6]
        covered, cursor = 0, start
        for lo, hi in sorted(children.get(span[0], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span[0]] = end - start - covered
    return result


def write_chrome_trace(spans: list[list], path: Path) -> None:
    """Chrome trace-event JSON (loads in Perfetto and chrome://tracing)."""
    selfs = self_times(spans)
    events = []
    for span_id, parent, op, name, layer, start, end, pid, tid in spans:
        events.append({
            "name": name,
            "cat": layer,
            "ph": "X",
            "ts": start / 1e3,
            "dur": (end - start) / 1e3,
            "pid": pid,
            "tid": tid,
            "args": {"id": span_id, "parent": parent, "op": op, "self_us": selfs[span_id] / 1e3},
        })
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _layer_of(filename: str) -> str | None:
    marker = os.sep + "repro" + os.sep
    index = filename.rfind(marker)
    if index < 0:
        return None
    head = filename[index + len(marker):].split(os.sep, 1)[0]
    return head[:-3] if head.endswith(".py") else head


def profile_stats(profiles: list[str]) -> dict:
    """Merged :mod:`pstats` table of the given profile dumps."""
    return pstats.Stats(*profiles).stats if profiles else {}


def layer_self_shares(stats: dict) -> dict[str, float]:
    """Exclusive profiled time per ``repro.<package>``, as busy-time shares."""
    per_layer: Counter = Counter()
    busy = 0.0
    for (filename, _line, func), (_cc, _nc, tottime, _ct, _callers) in stats.items():
        if func in _IDLE_WAITS:
            continue
        busy += tottime
        layer = _layer_of(filename)
        if layer is not None:
            per_layer[layer] += tottime
    return {layer: per_layer[layer] / busy if busy else 0.0 for layer in LAYERS}


def call_count(stats: dict, module_suffix: str, func: str) -> int:
    """Calls of ``func`` defined in a file ending with ``module_suffix``."""
    return sum(
        nc for (filename, _line, name), (_cc, nc, _tt, _ct, _callers) in stats.items()
        if name == func and filename.endswith(module_suffix)
    )
