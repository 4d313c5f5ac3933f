"""Scenario grids as sweep jobs: the service/cluster bridge.

A scenario's parameters are natural sweep axes (message length,
attempts per chunk, defense mode, ...).  :class:`ScenarioSweepSpec` is
the JSON-safe submission — the ``scenario`` field routes it at the
service's ``submit`` op (``repro.service.server`` dispatches on its
presence) — and :func:`scenario_point_metrics` is the picklable point
factory, so scenario sweeps flow through the exact cache / dedup /
cluster / obs stack ordinary channel sweeps use.

Each sweep point runs **one trial** of the scenario with the point's
canonical derived seed and the point's values overriding the registered
spec's params; statistical pooling over trials is the sweep's ``trials``
dimension, exactly as for channel sweeps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.obs import get_registry
from repro.scenarios import registry
from repro.scenarios.runners import run_trial
from repro.sweep import ParameterSweep, SweepPoint, grid_point_count
from repro.wire import Wire

__all__ = ["ScenarioSweepSpec", "scenario_point_metrics"]


def scenario_point_metrics(name: str, point: SweepPoint) -> dict:
    """Sweep factory: one scenario trial at one grid point.

    Module-level (dispatched via :func:`functools.partial` over the
    scenario *name*, never the spec object) so worker processes resolve
    the scenario from their own registry after importing
    ``repro.scenarios`` — keeping the partial picklable and the cache
    fingerprint stable across CLI and service submissions.
    """
    spec = registry.get(name).with_overrides(params=dict(point.values))
    outcome = run_trial(spec, seed=point.seed)
    get_registry().counter("scenario.points", scenario=name).inc()
    return outcome.metrics()


@dataclass(frozen=True)
class ScenarioSweepSpec(Wire):
    """JSON-safe description of one scenario-grid sweep job.

    The scenario-grid sibling of :class:`repro.service.spec.SweepSpec`,
    with the same :mod:`repro.wire` codec; the ``scenario`` field names
    a registered scenario and doubles as the submit-op dispatch key.
    """

    scenario: str
    grid: Mapping[str, Sequence[object]]
    trials: int = 1
    base_seed: int = 0
    priority: int = 0
    label: str | None = None

    def __post_init__(self) -> None:
        registry.get(self.scenario)  # raises on unknown names
        if not self.grid:
            raise ConfigurationError("scenario sweep needs a non-empty grid")
        if self.trials < 1:
            raise ConfigurationError(
                f"trials must be >= 1, got {self.trials}"
            )

    # ------------------------------------------------------------------
    def point_count(self) -> int:
        """Points this spec expands to (:func:`~repro.sweep.grid_point_count`)."""
        return grid_point_count(self.grid, self.trials)

    def build_sweep(self) -> ParameterSweep:
        """Materialise as a runnable :class:`ParameterSweep`."""
        factory = functools.partial(scenario_point_metrics, self.scenario)
        return ParameterSweep(
            factory,
            {name: list(values) for name, values in self.grid.items()},
            trials=int(self.trials),
            base_seed=int(self.base_seed),
        )
