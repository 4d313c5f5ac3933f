"""Shared utilities for the paper-reproduction benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation: it runs the experiment on the simulated machines, prints the
same rows/series the paper reports (with the paper's numbers alongside
for comparison), checks the output against the committed
``benchmarks/results/<name>.txt`` and asserts the qualitative *shape*
(orderings, rough factors, crossovers).

The committed result files are the reproduction's numbers.  When a run
prints different text, :func:`save_result` fails the test with a
unified diff of the rows that moved and writes the new text in place,
so ``git diff benchmarks/results/`` shows the change; committing that
diff is how an intended change to a paper number is accepted.

Sweep-driven benchmarks route through :func:`run_sweep`, which picks up
execution options from the environment so the whole suite can be fanned
out or memoised without touching any benchmark source; every mode must
reproduce the same committed files:

* ``REPRO_SWEEP_JOBS=N``      — run sweep points on N worker processes;
* ``REPRO_SWEEP_WORKERS=N``   — shard sweeps across N cluster workers
  (the distributed fabric; combines with ``JOBS`` for per-worker pools);
* ``REPRO_SWEEP_CACHE_DIR=D`` — cache point metrics on disk under D.
"""

from __future__ import annotations

import difflib
import io
import os
import sys
from contextlib import redirect_stdout
from typing import Callable, Sequence

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def sweep_executor():
    """Executor + cache configured from ``REPRO_SWEEP_*`` env vars."""
    from repro.cluster import make_executor
    from repro.exec import ResultCache

    executor = make_executor(
        jobs=int(os.environ.get("REPRO_SWEEP_JOBS", "1")),
        workers=int(os.environ.get("REPRO_SWEEP_WORKERS", "0")),
    )
    cache_dir = os.environ.get("REPRO_SWEEP_CACHE_DIR")
    return executor, ResultCache(cache_dir) if cache_dir else None


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
    touched; CI uploads them as build artifacts.
    """
    from repro.obs import get_registry, snapshot_json

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as handle:
        handle.write(snapshot_json(get_registry()) + "\n")
    return path


def run_and_report(name: str, experiment: Callable[[], object]) -> object:
    """Run an experiment once and check its stdout against
    ``benchmarks/results/<name>.txt`` (see :func:`save_result`); the
    text is also mirrored to the test output."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        result = experiment()
    text = sanitize(buffer.getvalue())
    print()
    print(text)
    save_result(name, text)
    return result


def save_result(name: str, text: str) -> str:
    """Check ``text`` against the committed ``results/<name>.txt``.

    When the text differs, or no file is there, write the new text to
    the file and fail the test.  The failure message is a unified diff from the committed text (empty
    for a missing file) to the new one, so it names the moved rows.
    """
    text = sanitize(text)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    try:
        with open(path) as handle:
            old = handle.read()
    except FileNotFoundError:
        old = None
    if old == text:
        return path
    with open(path, "w") as handle:
        handle.write(text)
    diff = "".join(
        difflib.unified_diff(
            (old or "").splitlines(keepends=True),
            text.splitlines(keepends=True),
            fromfile=f"committed/{name}.txt",
            tofile=f"measured/{name}.txt",
        )
    )
    state = "was missing" if old is None else "changed"
    pytest.fail(
        f"{path} {state}; the new text is written there, commit it if the "
        f"change is intended:\n{diff}",
        pytrace=False,
    )


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
