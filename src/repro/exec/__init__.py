"""Execution layer for parameter sweeps.

Pluggable strategies for computing a sweep's grid points:

* :class:`SerialExecutor` — in-process, one point after another (the
  default; exact historical behaviour);
* :class:`ParallelExecutor` — fans points across worker processes while
  preserving deterministic point order;
* :func:`local_executor` — the one serial-or-parallel choice for a
  ``jobs`` count;
* :class:`ResultCache` — content-addressed on-disk memoisation so
  repeated benchmark runs skip already-computed points.

Every executor returns :class:`ExecutionStats` (per-point timings,
points/sec, cache hit rate) alongside the ordered results.  See
``docs/api.md`` ("Running experiments at scale") for usage.
"""

from repro.exec.base import ExecutionStats, Executor, PointTiming, ProgressFn
from repro.exec.cache import ResultCache
from repro.exec.canonical import (
    callable_fingerprint,
    canonical_point_key,
    canonical_value,
    point_key,
    point_seed_name,
)
from repro.exec.parallel import ParallelExecutor, local_executor
from repro.exec.serial import SerialExecutor

__all__ = [
    "Executor",
    "ExecutionStats",
    "PointTiming",
    "ProgressFn",
    "SerialExecutor",
    "ParallelExecutor",
    "local_executor",
    "ResultCache",
    "canonical_value",
    "canonical_point_key",
    "point_seed_name",
    "point_key",
    "callable_fingerprint",
]
