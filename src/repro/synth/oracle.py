"""The leakage oracle: does a candidate still leak under a defense?

:class:`LeakageOracle` runs a :class:`CandidateProgram` as a full
sender/receiver pair (a :class:`SynthChannel`, riding the covert-channel
calibration/transmission framework) on a machine built from a
declarative defense config, and classifies the result with the
``DefenseEvaluator`` thresholds:

* ``blocked``  — the channel is unconstructible on the defended machine;
* ``broken``   — calibration found no signal, or the Wagner–Fischer
  error rate reached :data:`~repro.defense.evaluation.BROKEN_ERROR`;
* ``degraded`` — decodable but error ≥
  :data:`~repro.defense.evaluation.DEGRADED_ERROR`;
* ``intact``   — the channel carries the message.  Against the
  *undefended* baseline this is what makes a candidate a find; against
  a mitigation stack it means the candidate *defeats* the defense.

The oracle also computes the candidate's **frontend-path fingerprint**:
a compact signature of which DSB/LSD/MITE transitions each bit body
exercises on the undefended machine (dominant delivery path, switch,
eviction, flush, capture, and LCP-stall activity, per bit value).  The
search keys corpus novelty on this string — two candidates that drive
the frontend through the same transitions are the same discovery, no
matter how their genomes differ.

Scores flow through the shared outcome machinery:
``TransmissionResult.to_outcome`` →
:class:`~repro.analysis.outcome.ScenarioOutcome` /
:func:`~repro.analysis.outcome.leak_kbps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.bits import alternating_bits
from repro.analysis.outcome import ScenarioOutcome
from repro.channels.base import ChannelConfig, NonMtChannel
from repro.defense.evaluation import (
    BROKEN_ERROR,
    DEGRADED_ERROR,
    defended_machine,
)
from repro.errors import ChannelError, ConfigurationError, ReproError
from repro.frontend.engine import LoopReport
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import spec_by_name
from repro.synth.candidate import CandidateProgram
from repro.wire import Wire

__all__ = [
    "OracleConfig",
    "OracleVerdict",
    "SynthChannel",
    "LeakageOracle",
    "path_fingerprint",
]

#: Iterations used for the (per-bit-body) fingerprint probe runs; kept
#: small and fixed so fingerprinting stays cheap and genome-independent.
_FINGERPRINT_ITERATIONS = 4


class SynthChannel(NonMtChannel):
    """A candidate genome run as a non-MT covert channel.

    Each bit runs the candidate's Init+Encode+Decode loop for the bit
    value and times the whole traversal through the machine's noisy
    timer — the one-thread protocol of
    :class:`~repro.channels.eviction.NonMtEvictionChannel`.
    """

    name = "synth"

    def __init__(
        self,
        machine: Machine,
        candidate: CandidateProgram,
        config: ChannelConfig | None = None,
    ) -> None:
        self.candidate = candidate
        super().__init__(machine, config)
        self._programs = candidate.programs(machine.layout())


@dataclass(frozen=True)
class OracleConfig(Wire):
    """What one oracle evaluation costs and runs on."""

    machine: str = "Gold 6226"
    bits: int = 32
    training_bits: int = 12

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ConfigurationError(f"bits must be >= 1, got {self.bits}")
        if self.training_bits < 4:
            raise ConfigurationError(
                f"training_bits must be >= 4, got {self.training_bits}"
            )


@dataclass(frozen=True)
class OracleVerdict:
    """One candidate scored against one defense configuration."""

    status: str  # "blocked" | "broken" | "degraded" | "intact"
    kbps: float
    error_rate: float
    accuracy: float
    cycles: float
    fingerprint: str
    detail: str = ""
    #: Full outcome record (absent for blocked/broken-at-calibration
    #: candidates); not part of the flat metrics — it stays in-process.
    outcome: ScenarioOutcome | None = None

    @property
    def leaks(self) -> bool:
        return self.status == "intact"

    def metrics(self) -> dict:
        """Flat JSON-safe mapping, stable through the sweep cache."""
        return {
            "status": self.status,
            "kbps": self.kbps,
            "error_rate": self.error_rate,
            "accuracy": self.accuracy,
            "cycles": self.cycles,
            "fingerprint": self.fingerprint,
        }


def _report_signature(report: LoopReport) -> str:
    """Which frontend transitions one bit body exercises."""
    flags = (
        ("mite", report.switches_to_mite),
        ("dsb", report.switches_to_dsb),
        ("ev", report.dsb_evictions),
        ("fl", report.lsd_flushes),
        ("cap", report.lsd_captures),
        ("lcp", report.lcp_stalls),
    )
    parts = [report.dominant_path().value]
    parts.extend(f"{name}{'+' if count else '0'}" for name, count in flags)
    return ".".join(parts)


def path_fingerprint(machine: Machine, candidate: CandidateProgram) -> str:
    """The candidate's frontend-path fingerprint on ``machine``.

    Runs each bit body for a few iterations from a reset frontend and
    joins the two transition signatures — the novelty key the search's
    corpus is organised around.
    """
    zero, one = candidate.programs(machine.layout())
    signatures = []
    for program in (zero, one):
        machine.reset()
        report = machine.run_loop(
            LoopProgram(program.body, _FINGERPRINT_ITERATIONS, program.label)
        )
        signatures.append(_report_signature(report))
    machine.reset()
    return "|".join(signatures)


class LeakageOracle:
    """Scores candidates against declarative defense configurations."""

    def __init__(self, config: OracleConfig | None = None) -> None:
        self.config = config or OracleConfig()

    # ------------------------------------------------------------------
    def machine_for(
        self, seed: int, defense: Mapping[str, object] | None = None
    ) -> Machine:
        """The (possibly defended) machine one evaluation runs on."""
        return defended_machine(
            spec_by_name(self.config.machine), seed, defense
        )

    # ------------------------------------------------------------------
    def score(
        self,
        candidate: CandidateProgram,
        seed: int,
        defense: Mapping[str, object] | None = None,
    ) -> OracleVerdict:
        """Run the candidate under ``defense`` and classify the channel.

        The fingerprint is always computed on the *undefended* machine:
        it identifies the attack mechanism, which does not change with
        the defense under test.
        """
        fingerprint = path_fingerprint(self.machine_for(seed), candidate)
        try:
            machine = self.machine_for(seed, defense)
            channel = SynthChannel(machine, candidate)
        except ReproError as exc:
            return OracleVerdict(
                status="blocked",
                kbps=0.0,
                error_rate=1.0,
                accuracy=0.0,
                cycles=0.0,
                fingerprint=fingerprint,
                detail=str(exc),
            )
        try:
            result = channel.transmit(
                alternating_bits(self.config.bits),
                training_bits=self.config.training_bits,
            )
        except ChannelError as exc:
            # Calibration found no signal: the channel carries nothing.
            return OracleVerdict(
                status="broken",
                kbps=0.0,
                error_rate=1.0,
                accuracy=0.0,
                cycles=0.0,
                fingerprint=fingerprint,
                detail=str(exc),
            )
        if result.error_rate >= BROKEN_ERROR:
            status = "broken"
        elif result.error_rate >= DEGRADED_ERROR:
            status = "degraded"
        else:
            status = "intact"
        outcome = result.to_outcome(machine.spec.frequency_hz)
        return OracleVerdict(
            status=status,
            kbps=result.kbps,
            error_rate=result.error_rate,
            accuracy=outcome.accuracy,
            cycles=result.total_cycles,
            fingerprint=fingerprint,
            outcome=outcome,
        )
