"""The name → :class:`ScenarioSpec` registry.

One flat namespace: the CLI (``python -m repro scenario run <name>``)
and the sweep service (scenario grid submissions) resolve scenarios
through :func:`get`.  Builtin scenarios are installed when
``repro.scenarios`` is imported — including inside pickled sweep
factories in worker processes, which only ever reference scenarios by
name.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.scenarios.spec import ScenarioSpec

__all__ = ["register", "unregister", "get", "names", "all_specs"]

_REGISTRY: dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Install a scenario under its name.

    Re-registering the *identical* spec is a no-op (idempotent module
    reloads); registering a different spec under a taken name requires
    ``replace=True``.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec and not replace:
        raise ConfigurationError(
            f"scenario {spec.name!r} is already registered with a "
            "different spec; pass replace=True to overwrite"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a scenario (primarily for tests)."""
    if name not in _REGISTRY:
        raise ConfigurationError(f"scenario {name!r} is not registered")
    del _REGISTRY[name]


def get(name: str) -> ScenarioSpec:
    """Resolve a scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered scenarios: "
            f"{', '.join(names()) or '(none)'}"
        ) from None


def names() -> tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def all_specs() -> tuple[ScenarioSpec, ...]:
    """All registered specs, in name order."""
    return tuple(_REGISTRY[name] for name in names())
