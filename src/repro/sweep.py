"""Parameter-sweep framework for channel and model studies.

The evaluation repeatedly asks "how does X change as parameter Y moves?"
(Figure 11's d-sweep, the ablation benchmarks, calibration work).  This
module factors that pattern into a reusable, deterministic grid runner::

    sweep = ParameterSweep(
        factory=lambda point: run_my_channel(d=point["d"], seed=point.seed),
        grid={"d": [1, 2, 4, 6, 8]},
        trials=3,
    )
    table = sweep.run()
    print(table.render())

Each grid point runs ``trials`` times with per-point derived seeds; the
result table carries mean/min/max per metric and renders as ASCII or
exports to plain dicts for further analysis.

How the points get computed is pluggable (:mod:`repro.exec`): the
default :class:`~repro.exec.serial.SerialExecutor` preserves the
historical in-process behaviour, a
:class:`~repro.exec.parallel.ParallelExecutor` fans points across worker
processes, and a :class:`~repro.exec.cache.ResultCache` memoises
already-computed points on disk.  All strategies produce identical
tables; ``sweep.last_stats`` carries the throughput/cache statistics of
the most recent run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.exec.canonical import point_seed_name
from repro.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.base import ExecutionStats, Executor, ProgressFn
    from repro.exec.cache import ResultCache

__all__ = [
    "SweepPoint",
    "SweepResult",
    "SweepTable",
    "ParameterSweep",
    "grid_point_count",
    "render_rows",
]


def grid_point_count(grid: Mapping[str, Sequence[object]], trials: int) -> int:
    """Points a grid expands to: axis-length product × ``trials``.

    Computed from the axis lengths alone — no cross-product is
    materialised — so quota admission can bound a submission's cost
    *before* the server pays it.
    """
    return int(trials) * math.prod(len(values) for values in grid.values())


@dataclass(frozen=True)
class SweepPoint:
    """One grid coordinate plus its derived trial seed."""

    values: Mapping[str, object]
    trial: int
    seed: int

    def __getitem__(self, key: str) -> object:
        return self.values[key]


@dataclass(frozen=True)
class SweepResult:
    """Metrics measured at one point/trial."""

    point: SweepPoint
    metrics: Mapping[str, float]


@dataclass
class SweepTable:
    """Aggregated sweep output: one row per grid coordinate.

    Rows come back in **grid order** (the cartesian-product order of
    ``grid``) regardless of the order results were appended in — a
    parallel executor completing points out of order still yields the
    same table.  Coordinates not described by ``grid`` (or all rows,
    when ``grid`` is omitted) keep first-appearance order.

    The per-row aggregation is cached; use :meth:`append` (not direct
    mutation of ``results``) so the cache invalidates correctly.
    """

    parameter_names: tuple[str, ...]
    metric_names: tuple[str, ...]
    results: list[SweepResult] = field(default_factory=list)
    grid: Mapping[str, Sequence[object]] | None = None
    _rows_cache: list[dict] | None = field(
        default=None, repr=False, compare=False
    )

    def append(self, result: SweepResult) -> None:
        """Add one result and invalidate the cached aggregation."""
        self.results.append(result)
        self._rows_cache = None

    def rows(self) -> list[dict]:
        """Per-coordinate aggregation (mean/min/max over trials)."""
        if self._rows_cache is None:
            self._rows_cache = self._aggregate()
        return [dict(row) for row in self._rows_cache]

    def _aggregate(self) -> list[dict]:
        grouped: dict[tuple, list[SweepResult]] = {}
        for result in self.results:
            key = tuple(result.point.values[name] for name in self.parameter_names)
            grouped.setdefault(key, []).append(result)
        rows = []
        for key in self._ordered_keys(grouped):
            bucket = grouped[key]
            row: dict = dict(zip(self.parameter_names, key))
            for metric in self.metric_names:
                samples = [r.metrics[metric] for r in bucket]
                row[f"{metric}_mean"] = float(np.mean(samples))
                row[f"{metric}_min"] = float(np.min(samples))
                row[f"{metric}_max"] = float(np.max(samples))
            rows.append(row)
        return rows

    def _ordered_keys(self, grouped: Mapping[tuple, object]) -> list[tuple]:
        """Grouped coordinate keys, sorted into grid order."""
        keys = list(grouped)
        if self.grid is None:
            return keys
        axes = [list(self.grid.get(name, [])) for name in self.parameter_names]
        in_grid: list[tuple[tuple[int, ...], tuple]] = []
        extras: list[tuple] = []
        for key in keys:
            try:
                rank = tuple(axis.index(value) for axis, value in zip(axes, key))
            except ValueError:
                extras.append(key)
            else:
                in_grid.append((rank, key))
        in_grid.sort(key=lambda item: item[0])
        return [key for _, key in in_grid] + extras

    def column(self, metric: str) -> list[float]:
        """Mean values of one metric, in grid order."""
        return [row[f"{metric}_mean"] for row in self.rows()]

    def render(self, precision: int = 2) -> str:
        return render_rows(self.parameter_names, self.metric_names, self.rows(), precision)


def render_rows(
    parameters: Sequence[str], metrics: Sequence[str], rows: list[dict], precision: int = 2
) -> str:
    """ASCII table of sweep rows: the parameters, then each metric's
    mean.  Renders :meth:`SweepTable.render` and, from a ``job-done``
    event's payload, the tables ``submit`` prints."""
    if not rows:
        return "(empty sweep)"
    headers = [str(p) for p in parameters] + [f"{m}_mean" for m in metrics]
    widths = [max(len(h), 10) for h in headers]
    lines = ["".join(h.ljust(w + 2) for h, w in zip(headers, widths))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        cells = []
        for header, width in zip(headers, widths):
            value = row.get(header)
            text = f"{value:.{precision}f}" if isinstance(value, float) else str(value)
            cells.append(text.ljust(width + 2))
        lines.append("".join(cells))
    return "\n".join(lines)


class ParameterSweep:
    """Deterministic grid sweep runner.

    Parameters
    ----------
    factory:
        Callable ``(point) -> Mapping[str, float]`` running one trial and
        returning named metrics.  It receives a :class:`SweepPoint` whose
        ``seed`` is unique and stable per (coordinate, trial).  To run
        under a :class:`~repro.exec.parallel.ParallelExecutor` the
        factory must be picklable (module-level function or
        ``functools.partial``).
    grid:
        Parameter name -> list of values.  The cartesian product is run.
    trials:
        Repetitions per coordinate (different seeds).
    base_seed:
        Root of the per-point seed derivation.  Seeds use a canonical
        type-tagged encoding of the coordinate (:mod:`repro.exec.canonical`),
        so they are stable across processes and immune to ``repr`` drift,
        and grids may mix value types freely on an axis.
    """

    def __init__(
        self,
        factory: Callable[[SweepPoint], Mapping[str, float]],
        grid: Mapping[str, Sequence[object]],
        trials: int = 1,
        base_seed: int = 0,
    ) -> None:
        if not grid:
            raise ConfigurationError("sweep grid must name at least one parameter")
        if any(len(values) == 0 for values in grid.values()):
            raise ConfigurationError("every grid axis needs at least one value")
        if trials < 1:
            raise ConfigurationError("trials must be >= 1")
        self.factory = factory
        self.grid = {name: list(values) for name, values in grid.items()}
        self.trials = trials
        self.base_seed = base_seed
        #: Stats of the most recent :meth:`run` (None before the first).
        self.last_stats: "ExecutionStats | None" = None

    def points(self) -> list[SweepPoint]:
        names = list(self.grid)
        points = []
        for combo in itertools.product(*(self.grid[name] for name in names)):
            values = dict(zip(names, combo))
            for trial in range(self.trials):
                seed = derive_seed(self.base_seed, point_seed_name(values, trial))
                points.append(SweepPoint(values=values, trial=trial, seed=seed))
        return points

    def run(
        self,
        executor: "Executor | None" = None,
        cache: "ResultCache | None" = None,
        progress: "ProgressFn | None" = None,
    ) -> SweepTable:
        """Execute the grid and aggregate into a :class:`SweepTable`.

        Parameters
        ----------
        executor:
            Execution strategy; defaults to a fresh
            :class:`~repro.exec.serial.SerialExecutor`.
        cache:
            Optional :class:`~repro.exec.cache.ResultCache`; hits skip
            the factory entirely.
        progress:
            Optional ``(completed, total, timing)`` callback invoked
            after every point.
        """
        from repro.exec.serial import SerialExecutor

        if executor is None:
            executor = SerialExecutor()
        points = self.points()
        results, stats = executor.run(points, self.factory, cache=cache, progress=progress)
        self.last_stats = stats
        return self.build_table(results)

    def build_table(self, results: Sequence[SweepResult]) -> SweepTable:
        """Validate per-point metrics and aggregate into a table.

        Factored out of :meth:`run` so alternative drivers (notably the
        sweep service, which resolves points through its cross-job dedup
        layer rather than a single executor call) produce tables with
        identical validation and grid-order semantics.
        """
        metric_names = self._validate_metrics(results)
        return SweepTable(
            parameter_names=tuple(self.grid),
            metric_names=metric_names,
            results=list(results),
            grid={name: tuple(values) for name, values in self.grid.items()},
        )

    def _validate_metrics(self, results: Sequence[SweepResult]) -> tuple[str, ...]:
        metric_names: tuple[str, ...] = ()
        for result in results:
            metrics = result.metrics
            if not metrics:
                raise ConfigurationError(
                    f"sweep factory returned no metrics at {result.point.values}"
                )
            if not metric_names:
                metric_names = tuple(metrics)
            elif tuple(metrics) != metric_names:
                raise ConfigurationError(
                    "sweep factory must return the same metrics at every "
                    f"point (got {tuple(metrics)} vs {metric_names})"
                )
        return metric_names
