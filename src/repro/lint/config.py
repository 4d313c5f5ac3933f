"""Configuration for the repro linter: scopes and the import DAG.

The layering table below is the repository's architecture written down
as data.  Each key is a top-level unit under ``repro`` (a subpackage, a
top-level module, the root package's ``__init__`` as ``"repro"``, or
``"__main__"``), and the value is the complete set of *other* units it
may import at runtime (typing-only imports under ``if TYPE_CHECKING:``
are exempt).  Three properties the tentpole cares about fall out of the
table rather than being special-cased:

* ``isa`` and ``frontend`` are leaves of the simulator — they may only
  reach ``errors`` (and, for ``frontend``, the ``isa``/``caches``
  structures it decodes into);
* ``exec`` never imports ``service`` — executors are the lower layer
  the service schedules onto, not the other way around;
* nothing imports ``cli`` — ``cli`` appears in no allowed set except
  ``__main__``'s.

Editing the architecture means editing this table in the same PR — the
diff review *is* the design review.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["LintConfig", "DEFAULT_LAYERS", "default_config"]

#: unit -> units it may import at runtime (itself is always allowed).
DEFAULT_LAYERS: Mapping[str, frozenset[str]] = {
    # -- foundations ----------------------------------------------------
    "errors": frozenset(),
    # Observability is a foundation: anything may record metrics, the
    # registry itself depends on nothing but the error types.
    "obs": frozenset({"errors"}),
    "rng": frozenset({"errors"}),
    "isa": frozenset({"errors"}),
    "caches": frozenset({"errors"}),
    # The strict JSON codec every wire-crossing spec dataclass and
    # service/cluster frame shares.
    "wire": frozenset({"errors"}),
    "analysis": frozenset({"errors", "wire"}),
    # -- simulator core -------------------------------------------------
    # ``obs`` entered the frontend set when run_loop grew its
    # sim.points/sim.latency instruments; obs is a foundation, so the
    # frontend stays a simulator leaf.
    "frontend": frozenset({"errors", "isa", "caches", "obs"}),
    "measure": frozenset({"errors", "frontend"}),
    "backend": frozenset({"errors", "isa", "frontend"}),
    "machine": frozenset({"errors", "caches", "frontend", "isa", "measure", "rng"}),
    # -- attacks / defenses on top of the machine -----------------------
    "channels": frozenset({"analysis", "errors", "frontend", "isa", "machine"}),
    "fingerprint": frozenset({"analysis", "errors", "isa", "machine"}),
    "sidechannel": frozenset({"analysis", "errors", "frontend", "isa", "machine"}),
    "spectre": frozenset({"analysis", "caches", "errors", "isa", "machine"}),
    "sgx": frozenset(
        {"analysis", "channels", "errors", "frontend", "isa", "machine", "measure"}
    ),
    # ``spectre`` entered the defense set with the Spectre v2 defense
    # hook (evaluate_spectre_v2): mitigations are judged against the
    # attacks they claim to stop.
    "defense": frozenset(
        {"analysis", "channels", "errors", "frontend", "isa", "machine", "spectre"}
    ),
    # -- attack synthesis -------------------------------------------------
    # The synthesiser generates candidate programs (isa), scores them as
    # covert channels on defended machines (channels/defense/machine),
    # and fans batches out through the executor contract (exec/sweep) —
    # but never reaches service/cluster: those drive *it*, not the
    # reverse, exactly like sweeps.
    "synth": frozenset(
        {
            "analysis",
            "channels",
            "defense",
            "errors",
            "exec",
            "frontend",
            "isa",
            "machine",
            "obs",
            "rng",
            "sweep",
            "wire",
        }
    ),
    # -- experiment plumbing --------------------------------------------
    "workloads": frozenset({"errors", "isa"}),
    # sweep <-> exec are one layer split over two modules: the sweep
    # grid model and the executors that run it share canonical identity
    # helpers, so each may import the other (and nothing higher).
    "sweep": frozenset({"errors", "exec", "rng"}),
    # ``wire`` entered the exec set when result-cache entries became
    # typed records; wire is a foundation that imports only ``errors``.
    "exec": frozenset({"errors", "obs", "rng", "sweep", "wire"}),
    "reporting": frozenset({"exec"}),
    # -- scenario registry ------------------------------------------------
    # Declarative attack scenarios sit above every attack layer they
    # orchestrate and reuse the service's JSON spec conventions; only
    # the entry points (cli) and the service's submit dispatch may
    # import them back — a mutual service<->scenarios allowance like
    # sweep<->exec (the Python-level cycle is broken by the server's
    # lazy import).
    "scenarios": frozenset(
        {
            "analysis",
            "channels",
            "errors",
            "exec",
            "isa",
            "machine",
            "measure",
            "obs",
            "rng",
            "service",
            "sgx",
            "spectre",
            "sweep",
            "synth",
            "wire",
        }
    ),
    # -- service layer ---------------------------------------------------
    "service": frozenset(
        {
            "analysis",
            "channels",
            "errors",
            "exec",
            "machine",
            "obs",
            "scenarios",
            "sweep",
            "wire",
        }
    ),
    # -- cluster fabric ---------------------------------------------------
    # Sits above the service layer: it reuses the service's endpoint
    # grammar and event vocabulary, and drives executors over the wire.
    # Its frames are typed with the shared ``wire`` codec.
    "cluster": frozenset({"errors", "exec", "obs", "service", "sweep", "wire"}),
    # -- tooling ---------------------------------------------------------
    # The linter inspects everything but imports only foundations.
    "lint": frozenset({"errors"}),
    # -- entry points ----------------------------------------------------
    # ``wire`` entered the cli set when the CLI's canonical JSON output
    # (``metrics --format json``, ``synth run --scenarios-out``) moved to
    # ``wire.canonical_json``; wire is a foundation over ``errors``.
    "cli": frozenset(
        {
            "analysis",
            "channels",
            "cluster",
            "defense",
            "errors",
            "exec",
            "fingerprint",
            "frontend",
            "isa",
            "lint",
            "machine",
            "measure",
            "obs",
            "reporting",
            "scenarios",
            "service",
            "sgx",
            "spectre",
            "sweep",
            "synth",
            "wire",
            "workloads",
        }
    ),
    # The benchmark suite drives experiments end to end, so it may reach
    # every library layer — but never the entry points (cli, __main__)
    # or the linter: benchmarks are *subjects* of tooling, not drivers.
    "benchmarks": frozenset(
        {
            "analysis",
            "caches",
            "channels",
            "cluster",
            "defense",
            "errors",
            "exec",
            "fingerprint",
            "frontend",
            "isa",
            "machine",
            "measure",
            "obs",
            "repro",
            "reporting",
            "rng",
            "service",
            "sgx",
            "sidechannel",
            "spectre",
            "sweep",
            "synth",
            "workloads",
        }
    ),
    # The root package re-exports the stable public API.
    "repro": frozenset(
        {"channels", "errors", "frontend", "isa", "machine", "rng"}
    ),
    "__main__": frozenset({"cli"}),
}


@dataclass(frozen=True)
class LintConfig:
    """Everything the runner and the rules need to know about the repo."""

    #: Directories (repo-relative) whose ``*.py`` files get linted.
    include: tuple[str, ...] = ("src/repro", "benchmarks")
    #: Packages where wall-clock/OS-entropy reads break simulator
    #: determinism (the cache/dedup correctness argument).  ``obs`` is
    #: held to the same bar: every timestamp must flow through the
    #: injectable clock, whose shim (``repro/obs/clock.py``) carries the
    #: single file-scoped exemption.
    deterministic_units: tuple[str, ...] = (
        "frontend",
        "machine",
        "channels",
        "measure",
        "obs",
        "synth",
        "wire",
    )
    #: Packages whose ``async def`` bodies must never block the loop,
    #: and whose shared state the ``race-*`` family audits for
    #: read-modify-writes across ``await`` points.
    async_units: tuple[str, ...] = ("service", "cluster")
    #: The import DAG (see module docstring).
    layers: Mapping[str, frozenset[str]] = field(
        default_factory=lambda: dict(DEFAULT_LAYERS)
    )


def default_config() -> LintConfig:
    return LintConfig()
