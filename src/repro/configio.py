"""Experiment-configuration (de)serialisation.

Research artifacts live or die on exact reproducibility.  Everything an
experiment depends on here is plain data — the machine spec, the
frontend/energy coefficients, the channel parameters, and the seed — so
a single JSON document pins a run completely::

    config = ExperimentConfig(spec=GOLD_6226, seed=42,
                              channel=ChannelConfig(d=6))
    config.save("experiment.json")
    ...
    machine = ExperimentConfig.load("experiment.json").build_machine()

Round-tripping is lossless and validated by construction: the body
decodes through the strict :mod:`repro.wire` codec (unknown, missing or
wrong-typed fields are refused) and every dataclass re-runs its
``__post_init__`` checks on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro import wire
from repro.channels.base import ChannelConfig
from repro.errors import ConfigurationError
from repro.frontend.params import EnergyParams, FrontendParams
from repro.machine.machine import Machine
from repro.machine.specs import MachineSpec, spec_by_name

__all__ = ["ExperimentConfig"]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully pinned experiment: machine + model + channel + seed."""

    spec: MachineSpec
    seed: int = 0
    params: FrontendParams = field(default_factory=FrontendParams)
    energy: EnergyParams = field(default_factory=EnergyParams)
    channel: ChannelConfig = field(default_factory=ChannelConfig)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build_machine(self) -> Machine:
        """Instantiate the pinned machine."""
        return Machine(
            self.spec, seed=self.seed, params=self.params, energy=self.energy
        )

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"format_version": _FORMAT_VERSION, **wire.to_dict(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentConfig":
        """Check the format version, then decode the body strictly."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"experiment config must be an object: {data!r}")
        version = data.get("format_version")
        if version != _FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported config format version {version!r} "
                f"(expected {_FORMAT_VERSION})"
            )
        body = {key: value for key, value in data.items() if key != "format_version"}
        return wire.from_dict(cls, body)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    @classmethod
    def for_machine(cls, name: str, seed: int = 0, **channel_kwargs) -> "ExperimentConfig":
        """Config for a Table I machine by name, with channel overrides."""
        return cls(
            spec=spec_by_name(name),
            seed=seed,
            channel=ChannelConfig(**channel_kwargs) if channel_kwargs else ChannelConfig(),
        )
