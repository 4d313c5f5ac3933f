"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, JSON-round-trippable description
of one attack reproduction: which runner *kind* executes it, which
machine it runs on, its kind-specific parameters, how many trials to
pool, and the :class:`~repro.analysis.outcome.SuccessCriteria` the
pooled outcome must clear.  Like every spec that crosses the sweep
service's wire, it is encoded and strictly decoded by :mod:`repro.wire`.

Scenario *kinds* name runner families (how a spec is executed); the
registry maps scenario *names* to concrete parameterisations.  Three
kinds exist today:

* ``frontal`` — single-stepped SGX branch-direction recovery
  (:class:`repro.sgx.frontal.FrontalAttack`);
* ``channel`` — a covert-channel transmission through any channel
  ``repro.service.spec.build_channel`` knows;
* ``spectre-v2`` — branch-target injection
  (:class:`repro.spectre.btb.SpectreV2Attack`);
* ``synth`` — a synthesised candidate program
  (:class:`repro.synth.CandidateProgram`) replayed through the leakage
  oracle, optionally under a declarative defense stack — how the
  synthesiser's discoveries become permanent regression scenarios.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.outcome import SuccessCriteria
from repro.errors import ConfigurationError
from repro.wire import Wire

__all__ = ["SCENARIO_KINDS", "ScenarioSpec"]

#: Runner families ``repro.scenarios.runners`` can execute.
SCENARIO_KINDS = ("frontal", "channel", "spectre-v2", "synth")


@dataclass(frozen=True)
class ScenarioSpec(Wire):
    """One registered attack scenario, as data."""

    name: str
    kind: str
    title: str
    machine: str
    criteria: SuccessCriteria
    trials: int = 3
    base_seed: int = 0
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario needs a non-empty name")
        if self.kind not in SCENARIO_KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; choose from "
                f"{sorted(SCENARIO_KINDS)}"
            )
        if self.trials < 1:
            raise ConfigurationError(
                f"trials must be >= 1, got {self.trials}"
            )
        if not isinstance(self.criteria, SuccessCriteria):
            raise ConfigurationError(
                "criteria must be a SuccessCriteria instance"
            )
        # Freeze params into a plain dict so accidental aliasing of the
        # caller's mapping cannot mutate a registered spec.
        object.__setattr__(self, "params", dict(self.params))

    # ------------------------------------------------------------------
    def with_overrides(
        self,
        params: Mapping[str, object] | None = None,
        trials: int | None = None,
        base_seed: int | None = None,
    ) -> "ScenarioSpec":
        """A copy with parameter/trial/seed overrides applied."""
        merged = dict(self.params)
        if params:
            merged.update(params)
        return dataclasses.replace(
            self,
            params=merged,
            trials=self.trials if trials is None else trials,
            base_seed=self.base_seed if base_seed is None else base_seed,
        )
