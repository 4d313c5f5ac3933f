"""Scenario execution: kind → runner dispatch, trials, criteria, metrics.

:func:`run_scenario` is the one entry point every consumer shares — the
CLI verb, the sweep-service factories, and the tests.
It derives one seed per trial from the spec's base seed (canonical
``derive_seed`` naming, so results are reproducible and cacheable),
runs the kind's runner, pools the per-trial outcomes with
:meth:`ScenarioOutcome.aggregate`, evaluates the spec's success
criteria, and records ``scenario.*`` instruments into the active
metrics registry.

Runners are module-level functions taking ``(spec, seed)`` so sweep
factories built over them stay picklable for the parallel executor.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.analysis.bits import random_bits
from repro.analysis.outcome import ScenarioOutcome
from repro.channels.base import ChannelConfig
from repro.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.machine.specs import spec_by_name
from repro.obs import MetricsRegistry, get_registry
from repro.rng import derive_seed
from repro.scenarios.spec import ScenarioSpec
from repro.service.spec import build_channel, sweep_config
from repro.sgx.frontal import FrontalAttack, FrontalParams
from repro.spectre.btb import SpectreV2Attack
from repro.spectre.channels import ALL_SPECTRE_CHANNELS
from repro.synth.candidate import CandidateProgram
from repro.synth.oracle import LeakageOracle, OracleConfig

__all__ = ["ScenarioResult", "run_scenario", "run_trial"]

#: Spectre covert-channel media by name (``FrontendDsbChannel.name`` etc).
_SPECTRE_CHANNELS = {cls.name: cls for cls in ALL_SPECTRE_CHANNELS}


@dataclass
class ScenarioResult:
    """One scenario run: pooled outcome, per-trial detail, verdict."""

    spec: ScenarioSpec
    outcome: ScenarioOutcome
    per_trial: list[ScenarioOutcome]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """JSON-safe summary (what ``scenario run --json`` prints)."""
        return {
            "name": self.spec.name,
            "kind": self.spec.kind,
            "machine": self.spec.machine,
            "trials": len(self.per_trial),
            "passed": self.passed,
            "failures": list(self.failures),
            "metrics": self.outcome.metrics(),
            "per_trial": [outcome.metrics() for outcome in self.per_trial],
        }


# ----------------------------------------------------------------------
# parameter parsing helpers
# ----------------------------------------------------------------------
def _reject_unknown(params, allowed, kind: str) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown {kind} scenario parameter(s) {unknown}; choose from "
            f"{sorted(allowed)}"
        )


def _secret_bytes(params, default: str, kind: str) -> bytes:
    secret = params.get("secret", default)
    if not isinstance(secret, str) or not secret:
        raise ConfigurationError(
            f"{kind} scenario 'secret' must be a non-empty string"
        )
    return secret.encode()


# ----------------------------------------------------------------------
# kind runners (module-level: sweep factories pickle partials over these)
# ----------------------------------------------------------------------
def _run_frontal(spec: ScenarioSpec, seed: int) -> ScenarioOutcome:
    params = dict(spec.params)
    frontal_fields = {f.name for f in dataclasses.fields(FrontalParams)}
    _reject_unknown(params, frontal_fields | {"secret"}, "frontal")
    secret = _secret_bytes(params, "frontal!", "frontal")
    overrides = {
        name: int(value)
        for name, value in params.items()
        if name in frontal_fields
    }
    machine = Machine(spec_by_name(spec.machine), seed=seed)
    attack = FrontalAttack(machine, secret, params=FrontalParams(**overrides))
    outcome = attack.run()
    return dataclasses.replace(outcome, label=spec.name)


def _run_channel(spec: ScenarioSpec, seed: int) -> ScenarioOutcome:
    params = dict(spec.params)
    config_fields = {f.name for f in dataclasses.fields(ChannelConfig)}
    scenario_keys = {"channel", "variant", "bits", "pattern"}
    _reject_unknown(params, scenario_keys | config_fields, "channel")
    channel_name = params.get("channel")
    if not isinstance(channel_name, str):
        raise ConfigurationError(
            "channel scenario needs a 'channel' parameter (a name from "
            "repro.service.spec.CHANNEL_NAMES)"
        )
    bits = int(params.get("bits", 128))
    if bits < 1:
        raise ConfigurationError(f"bits must be >= 1, got {bits}")
    pattern = params.get("pattern", "random")
    if pattern not in ("random", "alternating"):
        raise ConfigurationError(
            f"pattern must be 'random' or 'alternating', got {pattern!r}"
        )
    overrides = {k: v for k, v in params.items() if k in config_fields}
    machine = Machine(spec_by_name(spec.machine), seed=seed)
    config = sweep_config(channel_name, overrides)
    channel = build_channel(
        machine, channel_name, str(params.get("variant", "fast")), config
    )
    if pattern == "random":
        message = random_bits(
            bits, machine.rngs.stream(f"scenario/{spec.name}/message")
        )
    else:
        message = [i % 2 for i in range(bits)]
    result = channel.transmit(message)
    outcome = result.to_outcome(machine.spec.frequency_hz)
    return dataclasses.replace(outcome, label=spec.name)


def _run_spectre_v2(spec: ScenarioSpec, seed: int) -> ScenarioOutcome:
    params = dict(spec.params)
    allowed = {"secret", "channel", "trainings", "attempts_per_chunk", "defense"}
    _reject_unknown(params, allowed, "spectre-v2")
    secret = _secret_bytes(params, "btb!", "spectre-v2")
    channel_name = params.get("channel", "frontend-dsb")
    try:
        channel_cls = _SPECTRE_CHANNELS[channel_name]
    except KeyError:
        raise ConfigurationError(
            f"unknown spectre channel {channel_name!r}; choose from "
            f"{sorted(_SPECTRE_CHANNELS)}"
        ) from None
    defense = params.get("defense")
    machine = Machine(spec_by_name(spec.machine), seed=seed)
    attack = SpectreV2Attack(
        machine,
        channel_cls(machine),
        secret,
        trainings=int(params.get("trainings", 4)),
        attempts_per_chunk=int(params.get("attempts_per_chunk", 3)),
        defense=defense,
    )
    report = attack.run()
    outcome = report.to_outcome(machine.spec.name)
    return dataclasses.replace(outcome, label=spec.name)


def _run_synth(spec: ScenarioSpec, seed: int) -> ScenarioOutcome:
    """Replay a synthesised candidate through the leakage oracle.

    ``defense`` (the JSON form ``{"mitigations": [...]}``) turns the
    scenario into a defense regression: a candidate registered as
    defeating a stack keeps proving it on every CI run.
    """
    params = dict(spec.params)
    allowed = {"candidate", "defense", "bits", "training_bits"}
    _reject_unknown(params, allowed, "synth")
    if "candidate" not in params:
        raise ConfigurationError(
            "synth scenario needs a 'candidate' parameter (the genome "
            "dict a SearchReport finding exports)"
        )
    candidate = CandidateProgram.from_dict(params["candidate"])
    defense = params.get("defense")
    if defense is not None and not isinstance(defense, dict):
        raise ConfigurationError(
            "synth scenario 'defense' must be a defense-config object "
            "or null"
        )
    oracle = LeakageOracle(
        OracleConfig(
            machine=spec.machine,
            bits=int(params.get("bits", 32)),
            training_bits=int(params.get("training_bits", 12)),
        )
    )
    verdict = oracle.score(candidate, seed, defense=defense)
    if verdict.outcome is None:
        # Blocked/broken before any bit crossed: an empty outcome whose
        # error rate still reflects the (failed) transmission.
        return ScenarioOutcome(
            label=spec.name,
            machine=spec.machine,
            units_total=0,
            units_correct=0,
            bits=0,
            cycles=0.0,
            frequency_hz=0.0,
            error_rate=1.0,
            details={},
        )
    return dataclasses.replace(verdict.outcome, label=spec.name)


_RUNNERS = {
    "frontal": _run_frontal,
    "channel": _run_channel,
    "spectre-v2": _run_spectre_v2,
    "synth": _run_synth,
}


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_trial(spec: ScenarioSpec, seed: int) -> ScenarioOutcome:
    """Run one trial of a scenario with an explicit machine seed."""
    return _RUNNERS[spec.kind](spec, seed)


def run_scenario(
    spec: ScenarioSpec,
    trials: int | None = None,
    base_seed: int | None = None,
    registry: MetricsRegistry | None = None,
) -> ScenarioResult:
    """Run a scenario end to end: trials, aggregation, criteria, metrics."""
    trials = spec.trials if trials is None else trials
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    base_seed = spec.base_seed if base_seed is None else base_seed
    outcomes = [
        run_trial(
            spec, derive_seed(base_seed, f"scenario/{spec.name}/trial{index}")
        )
        for index in range(trials)
    ]
    pooled = ScenarioOutcome.aggregate(outcomes, label=spec.name)
    failures = spec.criteria.failures(pooled)

    registry = get_registry() if registry is None else registry
    registry.counter("scenario.runs", scenario=spec.name).inc()
    registry.counter("scenario.trials", scenario=spec.name).inc(trials)
    if failures:
        registry.counter("scenario.failed", scenario=spec.name).inc()
    registry.gauge("scenario.accuracy", scenario=spec.name).set(pooled.accuracy)
    registry.gauge("scenario.error_rate", scenario=spec.name).set(
        pooled.error_rate
    )
    registry.gauge("scenario.kbps", scenario=spec.name).set(pooled.kbps)
    return ScenarioResult(
        spec=spec, outcome=pooled, per_trial=outcomes, failures=failures
    )
