"""Defense evaluation harness.

For a mitigation (or none), runs a representative set of attacks on the
defended machine and a benign workload for the performance cost:

* channel outcomes: blocked outright (unconstructible), broken (error
  rate near coin-flipping or calibration finds no signal), degraded, or
  intact;
* performance: cycles of a frontend-friendly benign loop, defended vs
  baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.analysis.bits import alternating_bits
from repro.channels.base import CovertChannel
from repro.channels.eviction import MtEvictionChannel, NonMtEvictionChannel
from repro.channels.misalignment import (
    MtMisalignmentChannel,
    NonMtMisalignmentChannel,
)
from repro.channels.slow_switch import SlowSwitchChannel
from repro.defense.mitigations import Mitigation, mitigation_from_dict
from repro.errors import ChannelError, ConfigurationError, ReproError
from repro.frontend.params import FrontendParams
from repro.isa.blocks import DSB_SETS
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226, MachineSpec
from repro.spectre.btb import SpectreV2Attack, V2_DEFENSES
from repro.spectre.channels import FrontendDsbChannel

__all__ = [
    "ChannelOutcome",
    "MitigationReport",
    "DefenseEvaluator",
    "channel_status",
    "defended_machine",
    "evaluate_spectre_v2",
]

#: A channel is considered broken when its error rate reaches this level
#: (at 40%+ the receiver learns almost nothing per bit).
BROKEN_ERROR = 0.40
#: ...and degraded when the error exceeds this while staying decodable.
DEGRADED_ERROR = 0.20


def channel_status(error_rate: float) -> str:
    """``"broken"``, ``"degraded"`` or ``"intact"`` for a decoded error rate."""
    if error_rate >= BROKEN_ERROR:
        return "broken"
    if error_rate >= DEGRADED_ERROR:
        return "degraded"
    return "intact"


@dataclass(frozen=True)
class ChannelOutcome:
    """Result of attacking one defended machine with one channel."""

    channel_name: str
    status: str  # "blocked" | "broken" | "degraded" | "intact"
    kbps: float = 0.0
    error_rate: float = 1.0
    detail: str = ""


@dataclass
class MitigationReport:
    """Full evaluation of one mitigation."""

    mitigation_name: str
    deployment: str
    outcomes: list[ChannelOutcome] = field(default_factory=list)
    benign_slowdown: float = 1.0
    benign_energy_ratio: float = 1.0
    #: Accuracy of a cross-thread *side channel* inferring which DSB set
    #: the sibling victim touches (chance level = 1/16 folded sets).
    #: Distinguishes mitigations that kill set-selective leakage from
    #: those that only leave a coarse activity channel.
    set_leak_accuracy: float = 0.0

    @property
    def surviving_channels(self) -> list[str]:
        return [o.channel_name for o in self.outcomes if o.status == "intact"]

    @property
    def blocked_channels(self) -> list[str]:
        return [
            o.channel_name
            for o in self.outcomes
            if o.status in ("blocked", "broken")
        ]


def defended_machine(
    spec: MachineSpec,
    seed: int,
    defense: "Mitigation | Mapping[str, object] | None",
) -> Machine:
    """Build the machine a defense configuration describes.

    ``defense`` may be a :class:`Mitigation` instance or the JSON-safe
    dict form ``{"mitigations": [...]}`` (see
    :func:`~repro.defense.mitigations.mitigation_from_dict`); ``None``
    builds the undefended baseline.
    """
    mitigation = _coerce_mitigation(defense)
    params = FrontendParams()
    if mitigation is not None:
        spec = mitigation.apply_spec(spec)
        params = mitigation.apply_params(params)
    return Machine(spec, seed=seed, params=params)


def _coerce_mitigation(
    defense: "Mitigation | Mapping[str, object] | None",
) -> Mitigation | None:
    if defense is None or isinstance(defense, Mitigation):
        return defense
    return mitigation_from_dict(defense)


def evaluate_spectre_v2(
    spec: MachineSpec = GOLD_6226,
    seed: int = 4242,
    secret: bytes = b"btb!",
    defenses: Sequence[str | None] = V2_DEFENSES,
    attempts_per_chunk: int = 3,
    channel_factory=None,
) -> list[ChannelOutcome]:
    """Evaluate branch-target-injection defenses against Spectre v2.

    Runs :class:`~repro.spectre.btb.SpectreV2Attack` once per defense
    mode on an otherwise identical machine and classifies each outcome
    with the channel thresholds: an ``intact`` undefended attack and
    ``broken`` retpoline/IBPB runs is the expected report.  The channel
    defaults to the paper's frontend DSB medium; pass
    ``channel_factory(machine)`` to evaluate another.

    ``defenses`` accepts any sequence — including a list deserialised
    from JSON, where ``null`` stands for the undefended run — so
    declarative service submissions can pass their payload through
    unmodified.
    """
    if isinstance(defenses, (str, bytes)):
        raise ReproError(
            "defenses must be a sequence of defense names, not a single "
            f"string: {defenses!r}"
        )
    outcomes: list[ChannelOutcome] = []
    for defense in tuple(defenses):
        if defense not in V2_DEFENSES:
            raise ReproError(
                f"unknown defense {defense!r}; expected one of {V2_DEFENSES}"
            )
        machine = Machine(spec, seed=seed)
        channel = (
            channel_factory(machine)
            if channel_factory is not None
            else FrontendDsbChannel(machine)
        )
        report = SpectreV2Attack(
            machine,
            channel,
            secret,
            attempts_per_chunk=attempts_per_chunk,
            defense=defense,
        ).run()
        error = 1.0 - report.accuracy
        outcomes.append(
            ChannelOutcome(
                channel_name=f"spectre-v2[{defense or 'none'}]",
                status=channel_status(error),
                kbps=report.leak_kbps,
                error_rate=error,
                detail=f"{report.chunks_correct}/{report.chunks_total} chunks",
            )
        )
    return outcomes


class DefenseEvaluator:
    """Attacks a (possibly defended) machine with the channel suite."""

    def __init__(
        self,
        spec: MachineSpec = GOLD_6226,
        seed: int = 4242,
        message_bits: int = 48,
    ) -> None:
        if message_bits < 1:
            raise ConfigurationError(
                f"message_bits must be >= 1, got {message_bits}"
            )
        self.spec = spec
        self.seed = seed
        self.message_bits = message_bits

    # ------------------------------------------------------------------
    def _machine(
        self, mitigation: "Mitigation | Mapping[str, object] | None"
    ) -> Machine:
        return defended_machine(self.spec, self.seed, mitigation)

    def _channel_suite(self, machine: Machine) -> list[tuple[str, callable]]:
        """Channel constructors; construction itself may raise (blocked)."""
        return [
            (
                "non-mt-eviction",
                lambda: NonMtEvictionChannel(machine, variant="stealthy"),
            ),
            (
                "non-mt-misalignment",
                lambda: NonMtMisalignmentChannel(machine, variant="stealthy"),
            ),
            ("slow-switch", lambda: SlowSwitchChannel(machine)),
            ("mt-eviction", lambda: MtEvictionChannel(machine)),
            ("mt-misalignment", lambda: MtMisalignmentChannel(machine)),
        ]

    def _attack(self, name: str, build) -> ChannelOutcome:
        try:
            channel: CovertChannel = build()
        except ReproError as exc:
            return ChannelOutcome(name, "blocked", detail=str(exc))
        try:
            result = channel.transmit(alternating_bits(self.message_bits))
        except ChannelError as exc:
            # Calibration found no signal: the channel carries nothing.
            return ChannelOutcome(name, "broken", detail=str(exc))
        return ChannelOutcome(
            name,
            channel_status(result.error_rate),
            kbps=result.kbps,
            error_rate=result.error_rate,
        )

    def _benign_report(self, machine: Machine):
        """A frontend-friendly benign workload: a hot 40-uop loop."""
        layout = machine.layout(region_base=0x900000)
        program = LoopProgram(layout.chain(7, 8), 100_000, "benign")
        return machine.run_loop(program)

    def _set_leak_accuracy(self, machine: Machine, trials: int = 16) -> float:
        """Cross-thread side channel: infer the victim's DSB set.

        The victim (thread 1) hammers 8 blocks of one set; the attacker
        (thread 0) probes each folded set with its own 8 blocks, *times*
        each probe (no counter access), and guesses the set whose probe
        measured slowest.  Returns the fraction of trials where the
        folded set is right.  Unconstructible on non-SMT machines
        (returns 0.0).
        """
        if not machine.spec.smt:
            return 0.0
        half = DSB_SETS // 2
        layout = machine.layout(region_base=0xA00000)
        correct = 0
        for trial in range(trials):
            victim_set = (trial * 5) % DSB_SETS
            victim = LoopProgram(layout.chain(victim_set, 8), 400, "victim")
            best_set, slowest = 0, -1.0
            for probe_set in range(half):
                machine.reset()
                probe = LoopProgram(
                    layout.chain(probe_set, 8, first_slot=60), 400, "probe"
                )
                result = machine.run_smt(probe, victim)
                measured = machine.smt_timer.measure(
                    result.primary.cycles
                ).measured_cycles
                if measured > slowest:
                    best_set, slowest = probe_set, measured
            if best_set == victim_set % half:
                correct += 1
        return correct / trials

    # ------------------------------------------------------------------
    def evaluate(
        self, mitigation: "Mitigation | Mapping[str, object] | None"
    ) -> MitigationReport:
        """Run the suite against one mitigation (None = baseline).

        ``mitigation`` may also be the JSON-safe dict form
        ``{"mitigations": [...]}`` — declarative defense configs from
        the synthesiser or service submissions evaluate directly.
        """
        mitigation = _coerce_mitigation(mitigation)
        machine = self._machine(mitigation)
        report = MitigationReport(
            mitigation_name=mitigation.name if mitigation else "baseline",
            deployment=mitigation.deployment if mitigation else "-",
        )
        for name, build in self._channel_suite(machine):
            report.outcomes.append(self._attack(name, build))
        baseline = self._benign_report(self._machine(None))
        defended = self._benign_report(self._machine(mitigation))
        report.benign_slowdown = defended.cycles / baseline.cycles
        report.benign_energy_ratio = defended.energy_nj / baseline.energy_nj
        report.set_leak_accuracy = self._set_leak_accuracy(
            self._machine(mitigation)
        )
        return report

    def evaluate_all(
        self, mitigations: tuple[Mitigation, ...]
    ) -> list[MitigationReport]:
        reports = [self.evaluate(None)]
        reports.extend(self.evaluate(m) for m in mitigations)
        return reports
