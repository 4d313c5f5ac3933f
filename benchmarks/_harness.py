"""Shared utilities for the paper-reproduction benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation: it runs the experiment on the simulated machines, prints the
same rows/series the paper reports (with the paper's numbers alongside
for comparison), writes the output under ``benchmarks/results/``, and
asserts the qualitative *shape* (orderings, rough factors, crossovers).

Sweep-driven benchmarks route through :func:`run_sweep`, which picks up
execution options from the environment so the whole suite can be fanned
out or memoised without touching any benchmark source:

* ``REPRO_SWEEP_JOBS=N``      — run sweep points on N worker processes;
* ``REPRO_SWEEP_WORKERS=N``   — shard sweeps across N cluster workers
  (the distributed fabric; combines with ``JOBS`` for per-worker pools);
* ``REPRO_SWEEP_CACHE_DIR=D`` — cache point metrics on disk under D;
* ``REPRO_SWEEP_NO_CACHE=1``  — ignore the cache even if a dir is set.
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stdout
from typing import Callable, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def sweep_executor():
    """Executor + cache configured from ``REPRO_SWEEP_*`` env vars."""
    from repro.cluster import make_executor
    from repro.exec import ResultCache

    executor = make_executor(
        jobs=int(os.environ.get("REPRO_SWEEP_JOBS", "1")),
        workers=int(os.environ.get("REPRO_SWEEP_WORKERS", "0")),
    )
    cache = None
    cache_dir = os.environ.get("REPRO_SWEEP_CACHE_DIR")
    if cache_dir and not os.environ.get("REPRO_SWEEP_NO_CACHE"):
        cache = ResultCache(cache_dir)
    return executor, cache


def run_sweep(sweep):
    """Run a :class:`~repro.sweep.ParameterSweep` under the env-selected
    executor/cache; throughput goes to stderr so captured result files
    stay byte-identical across execution modes."""
    from repro.reporting import format_execution_stats

    executor, cache = sweep_executor()
    table = sweep.run(executor=executor, cache=cache)
    print(format_execution_stats(sweep.last_stats), file=sys.stderr)
    save_metrics_snapshot("last_sweep_metrics")
    return table


def save_metrics_snapshot(name: str) -> str:
    """Dump the process metrics registry to ``results/<name>.json``.

    Snapshots accumulate over the whole pytest process, so the file
    written by the *last* sweep covers every instrument the suite
    touched — CI uploads these alongside the table outputs.
    """
    from repro.obs import get_registry, snapshot_json

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as handle:
        handle.write(snapshot_json(get_registry()) + "\n")
    return path


def run_and_report(benchmark, name: str, experiment: Callable[[], object]) -> object:
    """Run an experiment exactly once under pytest-benchmark.

    The experiment's stdout is captured and mirrored both to the test
    output and to ``benchmarks/results/<name>.txt``.
    """
    outputs: dict[str, object] = {}

    def once() -> None:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            outputs["result"] = experiment()
        outputs["text"] = buffer.getvalue()

    benchmark.pedantic(once, rounds=1, iterations=1)
    text = sanitize(str(outputs.get("text", "")))
    print()
    print(text)
    save_result(name, text)
    return outputs["result"]


def save_result(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(sanitize(text))
    return path


def sanitize(text: str) -> str:
    """Replace control characters (mis-recovered secret bytes can carry
    NULs etc.) so result files stay plain text."""
    return "".join(
        ch if ch in "\n\t" or ord(ch) >= 32 else "?" for ch in text
    )


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    widths: Sequence[int] | None = None,
) -> str:
    """Render a fixed-width ASCII table."""
    if widths is None:
        widths = [
            max(len(str(col)), *(len(_cell(row[i])) for row in rows)) + 2
            for i, col in enumerate(columns)
        ]
    lines = [title]
    header = "".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("".join(_cell(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def kbps_cell(kbps: float) -> str:
    return f"{kbps:.2f}"


def pct_cell(rate: float) -> str:
    return f"{rate * 100:.2f}%"
