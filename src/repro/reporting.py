"""Human-facing formatting of the execution layer's throughput numbers.

Sweep commands and the benchmark harness print one
:func:`format_execution_stats` line per
:class:`~repro.exec.base.ExecutionStats` run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.base import ExecutionStats

__all__ = ["format_execution_stats"]


def format_execution_stats(stats: "ExecutionStats") -> str:
    """One-line throughput summary of an executor run.

    Example::

        16 points via parallel(jobs=4) in 1.82s — 8.8 points/s, cache
        hits 8/16 (50%), slowest point 0.41s
    """
    parts = [
        f"{stats.points} points via {stats.executor}(jobs={stats.jobs}) "
        f"in {stats.elapsed_s:.2f}s",
        f"{stats.points_per_second:.1f} points/s",
        f"cache hits {stats.cache_hits}/{stats.points} "
        f"({stats.cache_hit_rate * 100:.0f}%)",
    ]
    computed = [t.elapsed_s for t in stats.timings if not t.cached]
    if computed:
        parts.append(f"slowest point {max(computed):.2f}s")
    return " — ".join(parts[:1]) + " — " + ", ".join(parts[1:])
