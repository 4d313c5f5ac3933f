"""Serialisable sweep submissions: what crosses the service's wire.

An arbitrary :class:`~repro.sweep.ParameterSweep` carries a Python
callable and cannot travel over a socket.  :class:`SweepSpec` is the
JSON-safe subset the remote service accepts: a channel-transmission
sweep described by machine / channel / variant / message bits plus the
grid, trials, and base seed.  ``build_sweep()`` turns a spec into a real
``ParameterSweep`` whose factory is a ``functools.partial`` over the
module-level :func:`sweep_point_metrics` — picklable for the parallel
executor and stably fingerprintable for the cache and dedup layers.

The channel-construction helpers here (:func:`build_channel`,
:data:`CHANNEL_DEFAULTS`, :func:`sweep_config`) are also what
``python -m repro transmit`` / ``sweep`` use, so the CLI's one-shot
sweeps and the service's jobs hit byte-identical factories — and
therefore share cache entries.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.bits import alternating_bits
from repro.channels.base import ChannelConfig
from repro.channels.eviction import MtEvictionChannel, NonMtEvictionChannel
from repro.channels.misalignment import (
    MtMisalignmentChannel,
    NonMtMisalignmentChannel,
)
from repro.channels.power import PowerEvictionChannel, PowerMisalignmentChannel
from repro.channels.retirement import RetirementChannel
from repro.channels.slow_switch import SlowSwitchChannel
from repro.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.machine.specs import spec_by_name
from repro.sweep import ParameterSweep, SweepPoint, grid_point_count
from repro.wire import Wire

__all__ = [
    "CHANNEL_NAMES",
    "CHANNEL_DEFAULTS",
    "SweepSpec",
    "build_channel",
    "load_spec",
    "sweep_config",
    "sweep_point_metrics",
    "parse_param_axis",
]

#: Channel classes by the name ``transmit``/``sweep``/``submit`` accept.
_CHANNELS = {
    "eviction": NonMtEvictionChannel,
    "misalignment": NonMtMisalignmentChannel,
    "slow-switch": SlowSwitchChannel,
    "mt-eviction": MtEvictionChannel,
    "mt-misalignment": MtMisalignmentChannel,
    "mt-retirement": RetirementChannel,
    "power-eviction": PowerEvictionChannel,
    "power-misalignment": PowerMisalignmentChannel,
}
#: The channels whose constructor takes a ``variant``.
_VARIANT_CHANNELS = {"eviction", "misalignment", "power-eviction", "power-misalignment"}

#: Channel names accepted by ``transmit``/``sweep``/``submit``.
CHANNEL_NAMES = tuple(_CHANNELS)

#: Per-channel default protocol parameters: each class's ``DEFAULTS``,
#: which its constructor applies when no config is given, so sweep
#: overrides start from the same baseline as a plain ``transmit``.
CHANNEL_DEFAULTS: dict[str, dict] = {
    name: dict(cls.DEFAULTS) for name, cls in _CHANNELS.items()
}


def build_channel(machine: Machine, name: str, variant: str, config=None):
    """Construct one covert channel by CLI name."""
    try:
        cls = _CHANNELS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown channel {name!r}; choose from {sorted(_CHANNELS)}"
        ) from None
    if name in _VARIANT_CHANNELS:
        return cls(machine, config, variant=variant)
    return cls(machine, config)


def sweep_config(channel_name: str, overrides) -> ChannelConfig:
    """ChannelConfig for one grid point: channel defaults + overrides."""
    known = {f.name for f in dataclasses.fields(ChannelConfig)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown ChannelConfig parameter(s) {unknown}; choose from "
            f"{sorted(known)}"
        )
    merged = {**CHANNEL_DEFAULTS[channel_name], **dict(overrides)}
    try:
        return ChannelConfig(**merged)
    except TypeError as exc:
        # e.g. a string grid value for a numeric protocol parameter.
        raise ConfigurationError(
            f"invalid ChannelConfig for {channel_name}: {exc}"
        ) from exc


def sweep_point_metrics(
    machine_name: str, channel_name: str, variant: str, bits: int, point: SweepPoint
) -> dict:
    """Sweep factory: one channel transmission at one grid point.

    Module-level (and dispatched via :func:`functools.partial`) so the
    parallel executor can pickle it into worker processes and the cache
    fingerprint stays stable across CLI and service submissions.
    """
    machine = Machine(spec_by_name(machine_name), seed=point.seed)
    config = sweep_config(channel_name, point.values)
    channel = build_channel(machine, channel_name, variant, config)
    result = channel.transmit(alternating_bits(bits))
    return {"kbps": result.kbps, "error": result.error_rate}


def parse_param_axis(text: str) -> tuple[str, list]:
    """Parse one ``--param name=v1,v2,...`` grid axis."""
    name, sep, tail = text.partition("=")
    if not sep or not name or not tail:
        raise ConfigurationError(
            f"--param expects NAME=V1,V2,... (got {text!r})"
        )

    def parse_value(token: str):
        for caster in (int, float):
            try:
                return caster(token)
            except ValueError:
                continue
        return token

    return name, [parse_value(token) for token in tail.split(",")]


@dataclass(frozen=True)
class SweepSpec(Wire):
    """JSON-safe description of one channel-parameter sweep job.

    ``to_dict()`` is the ``spec`` field of a ``submit`` request;
    :mod:`repro.wire` decodes it strictly, so a malformed grid (an axis
    that is a number or a string rather than an array) is refused with a
    :class:`~repro.errors.ConfigurationError`.
    """

    grid: Mapping[str, Sequence[object]]
    machine: str = "Gold 6226"
    channel: str = "eviction"
    variant: str = "fast"
    bits: int = 32
    trials: int = 1
    base_seed: int = 0
    priority: int = 0
    label: str | None = None

    def __post_init__(self) -> None:
        if self.channel not in CHANNEL_NAMES:
            raise ConfigurationError(
                f"unknown channel {self.channel!r}; choose from "
                f"{sorted(CHANNEL_NAMES)}"
            )
        if not self.grid:
            raise ConfigurationError("sweep spec needs a non-empty grid")

    # ------------------------------------------------------------------
    def point_count(self) -> int:
        """Points this spec expands to (:func:`~repro.sweep.grid_point_count`)."""
        return grid_point_count(self.grid, self.trials)

    def build_sweep(self) -> ParameterSweep:
        """Materialise the spec as a runnable :class:`ParameterSweep`."""
        factory = functools.partial(
            sweep_point_metrics, self.machine, self.channel, self.variant,
            int(self.bits),
        )
        return ParameterSweep(
            factory,
            {name: list(values) for name, values in self.grid.items()},
            trials=int(self.trials),
            base_seed=int(self.base_seed),
        )


def load_spec(payload: Mapping[str, object]):
    """Parse one JSON submit payload into a buildable spec.

    The single dispatch point shared by the socket server and WAL
    recovery, so a spec that was accepted over the wire always replays
    after a restart: a ``"scenario"`` key selects
    :class:`~repro.scenarios.sweep.ScenarioSweepSpec`, anything else is
    a plain :class:`SweepSpec`.
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError(f"sweep spec must be an object: {payload!r}")
    if "scenario" in payload:
        # Deferred import: scenarios sits above this module in the
        # layering, and only scenario submissions need it.
        from repro.scenarios.sweep import ScenarioSweepSpec

        return ScenarioSweepSpec.from_dict(payload)
    return SweepSpec.from_dict(payload)
