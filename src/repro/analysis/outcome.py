"""Shared attack-outcome accounting and success criteria.

Every reproduction in this repository ultimately answers the same three
questions: how *accurately* was the secret recovered, how *fast* did the
bits leak, and how *noisy* was the received message.  Historically each
attack carried its own ad-hoc report type (``AttackReport`` for Spectre,
``TransmissionResult`` for covert channels, bespoke dicts for SGX runs),
each re-deriving the cycles→seconds→Kbps arithmetic.  This module
centralises that accounting:

* :func:`leak_kbps` — the one place bits/cycles/frequency turn into a
  leak rate;
* :class:`ScenarioOutcome` — a normalised outcome record any attack can
  produce (``AttackReport.to_outcome()``, ``TransmissionResult
  .to_outcome()``) and that ``repro.scenarios`` aggregates over trials;
* :class:`SuccessCriteria` — declarative thresholds (minimum accuracy,
  maximum error rate, minimum leak rate) a scenario must clear, encoded
  by the strict :mod:`repro.wire` codec.

Placed in ``repro.analysis`` — a foundation unit — so both the attack
layers (``spectre``, ``channels``, ``sgx``) and the scenario registry
above them can share it without inverting the import DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.wire import Wire

__all__ = ["leak_kbps", "ScenarioOutcome", "SuccessCriteria"]


def leak_kbps(bits: int, cycles: float, frequency_hz: float) -> float:
    """Leak rate in Kbps for ``bits`` transmitted over ``cycles``.

    Returns 0.0 when either denominator is unknown (no cycles accounted
    or no clock), matching the historical ``AttackReport.leak_kbps``
    behaviour instead of raising on incomplete accounting.
    """
    if bits <= 0 or cycles <= 0 or frequency_hz <= 0:
        return 0.0
    seconds = cycles / frequency_hz
    return bits / seconds / 1e3


@dataclass
class ScenarioOutcome:
    """Normalised outcome of one attack run (or an aggregate of runs).

    Attributes
    ----------
    label:
        What produced the outcome (a scenario, channel, or attack name).
    machine:
        Machine-spec name the run executed on.
    units_total / units_correct:
        Recovered payload units (secret chunks for Spectre, message bits
        for covert channels, branch decisions for Frontal) and how many
        matched the ground truth.
    bits:
        Total payload bits the units carry, for leak-rate accounting.
    cycles:
        Wall-clock cycles charged to the attack (calibration excluded,
        matching the paper's steady-state bandwidth convention).
    frequency_hz:
        Clock the cycles are counted against.
    error_rate:
        Received-message error rate.  Channels report the Wagner–Fischer
        edit-distance rate; unit-counting attacks default it to
        ``1 - accuracy`` via :meth:`from_counts`.
    details:
        Extra scalar metrics (e.g. L1 miss rate) carried through to
        :meth:`metrics` untouched.
    """

    label: str
    machine: str
    units_total: int
    units_correct: int
    bits: int
    cycles: float
    frequency_hz: float
    error_rate: float
    details: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.units_total < 0 or self.units_correct < 0 or self.bits < 0:
            raise ConfigurationError("outcome counts must be non-negative")
        if self.units_correct > self.units_total:
            raise ConfigurationError(
                f"units_correct {self.units_correct} exceeds units_total "
                f"{self.units_total}"
            )
        if not 0.0 <= self.error_rate <= 1.0:
            raise ConfigurationError(
                f"error_rate must be in [0, 1], got {self.error_rate}"
            )

    @classmethod
    def from_counts(
        cls,
        label: str,
        machine: str,
        units_correct: int,
        units_total: int,
        *,
        bits: int,
        cycles: float,
        frequency_hz: float,
        error_rate: float | None = None,
        details: Mapping[str, float] | None = None,
    ) -> "ScenarioOutcome":
        """Build an outcome from unit counts, defaulting the error rate.

        Attacks that count recovered units but do not compute an
        edit-distance error rate (Spectre chunk votes, Frontal branch
        decisions) get ``error_rate = 1 - accuracy``.
        """
        if error_rate is None:
            error_rate = (
                1.0 - units_correct / units_total if units_total else 1.0
            )
        return cls(
            label=label,
            machine=machine,
            units_total=units_total,
            units_correct=units_correct,
            bits=bits,
            cycles=cycles,
            frequency_hz=frequency_hz,
            error_rate=error_rate,
            details=dict(details or {}),
        )

    @property
    def accuracy(self) -> float:
        return self.units_correct / self.units_total if self.units_total else 0.0

    @property
    def seconds(self) -> float:
        return self.cycles / self.frequency_hz if self.frequency_hz else 0.0

    @property
    def kbps(self) -> float:
        return leak_kbps(self.bits, self.cycles, self.frequency_hz)

    def metrics(self) -> dict[str, float]:
        """Flat scalar view, suitable for sweep rows and obs gauges."""
        base = {
            "accuracy": self.accuracy,
            "error_rate": self.error_rate,
            "kbps": self.kbps,
            "cycles": self.cycles,
            "bits": float(self.bits),
        }
        base.update(self.details)
        return base

    @classmethod
    def aggregate(
        cls, outcomes: Sequence["ScenarioOutcome"], label: str | None = None
    ) -> "ScenarioOutcome":
        """Pool trial outcomes: sum the counts, recompute the rates.

        The pooled error rate is the bit-weighted mean, so trials with
        longer payloads dominate exactly as they would in one long run.
        Shared ``details`` keys are averaged unweighted.
        """
        if not outcomes:
            raise ConfigurationError("cannot aggregate zero outcomes")
        first = outcomes[0]
        for outcome in outcomes[1:]:
            if outcome.machine != first.machine:
                raise ConfigurationError(
                    "cannot aggregate outcomes from different machines: "
                    f"{first.machine!r} vs {outcome.machine!r}"
                )
        total_bits = sum(o.bits for o in outcomes)
        if total_bits:
            pooled_error = (
                sum(o.error_rate * o.bits for o in outcomes) / total_bits
            )
        else:
            pooled_error = sum(o.error_rate for o in outcomes) / len(outcomes)
        details: dict[str, float] = {}
        for key in first.details:
            if all(key in o.details for o in outcomes):
                details[key] = sum(o.details[key] for o in outcomes) / len(
                    outcomes
                )
        return cls(
            label=label if label is not None else first.label,
            machine=first.machine,
            units_total=sum(o.units_total for o in outcomes),
            units_correct=sum(o.units_correct for o in outcomes),
            bits=total_bits,
            cycles=sum(o.cycles for o in outcomes),
            frequency_hz=first.frequency_hz,
            error_rate=pooled_error,
            details=details,
        )


@dataclass(frozen=True)
class SuccessCriteria(Wire):
    """Declarative thresholds an outcome must clear to count as success.

    At least one threshold must be set — criteria that cannot fail are a
    configuration bug, not a permissive default.
    """

    min_accuracy: float | None = None
    max_error_rate: float | None = None
    min_kbps: float | None = None

    def __post_init__(self) -> None:
        if (
            self.min_accuracy is None
            and self.max_error_rate is None
            and self.min_kbps is None
        ):
            raise ConfigurationError(
                "success criteria must set at least one threshold"
            )
        for name in ("min_accuracy", "max_error_rate"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}"
                )
        if self.min_kbps is not None and self.min_kbps < 0:
            raise ConfigurationError(
                f"min_kbps must be non-negative, got {self.min_kbps}"
            )

    def failures(self, outcome: ScenarioOutcome) -> tuple[str, ...]:
        """Human-readable list of unmet thresholds (empty on success)."""
        failures: list[str] = []
        if self.min_accuracy is not None and outcome.accuracy < self.min_accuracy:
            failures.append(
                f"accuracy {outcome.accuracy:.4f} < required {self.min_accuracy}"
            )
        if (
            self.max_error_rate is not None
            and outcome.error_rate > self.max_error_rate
        ):
            failures.append(
                f"error rate {outcome.error_rate:.4f} > allowed "
                f"{self.max_error_rate}"
            )
        if self.min_kbps is not None and outcome.kbps < self.min_kbps:
            failures.append(
                f"leak rate {outcome.kbps:.4f} Kbps < required {self.min_kbps}"
            )
        return tuple(failures)

    def passed(self, outcome: ScenarioOutcome) -> bool:
        return not self.failures(outcome)
