"""Process-pool executor: fan grid points across worker processes.

The sweep grids are embarrassingly parallel — every point carries its
own derived seed and builds its own :class:`~repro.machine.machine.Machine`,
so points share no state.  :class:`ParallelExecutor` ships ``(factory,
point)`` pairs to a :class:`concurrent.futures.ProcessPoolExecutor` and
reassembles results **in point order** no matter which worker finishes
first, so the resulting table is identical to a serial run.

The factory must be picklable (a module-level function or a
``functools.partial`` over one); closures and lambdas work only with the
serial executor.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.exec.base import Executor
from repro.exec.serial import SerialExecutor
from repro.obs import get_registry

__all__ = ["ParallelExecutor", "local_executor"]


def _run_point(
    factory: Callable[[object], Mapping[str, float]], index: int, point: object
) -> tuple[int, dict, float]:
    """Worker entry point: compute one grid point, timed.

    Timed on the registry clock: in pool children that is the host
    monotonic clock (a fresh process default), while the inline
    ``jobs=1`` path honours an injected deterministic clock.
    """
    clock = get_registry().clock
    t0 = clock()
    metrics = dict(factory(point))
    return index, metrics, clock() - t0


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork is cheap and inherits sys.path/imports; fall back to the
    # platform default (spawn on macOS/Windows) where fork is absent.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ParallelExecutor(Executor):
    """Fans pending points across ``jobs`` worker processes.

    Parameters
    ----------
    jobs:
        Worker-process count (>= 1).  ``jobs=1`` degenerates to serial
        execution without spinning up a pool.
    """

    name = "parallel"

    def __init__(self, jobs: int = 2) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)

    def _compute(
        self,
        pending: Sequence[tuple[int, object]],
        factory: Callable[[object], Mapping[str, float]],
    ) -> Iterable[tuple[int, Mapping[str, float], float]]:
        if not pending:
            return
        if self.jobs == 1 or len(pending) == 1:
            for index, point in pending:
                yield _run_point(factory, index, point)
            return
        workers = min(self.jobs, len(pending))
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context()
        ) as pool:
            futures = [
                pool.submit(_run_point, factory, index, point)
                for index, point in pending
            ]
            for future in concurrent.futures.as_completed(futures):
                yield future.result()


def local_executor(jobs: int) -> Executor:
    """The executor for ``jobs`` local processes: a
    :class:`ParallelExecutor` pool when ``jobs > 1``, else a
    :class:`SerialExecutor` in the calling process."""
    return ParallelExecutor(jobs=jobs) if jobs > 1 else SerialExecutor()
