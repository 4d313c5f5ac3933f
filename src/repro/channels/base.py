"""Covert-channel protocol framework.

Defines the shared machinery every concrete channel uses:

* :class:`ChannelConfig` — the paper's protocol parameters (``d``, ``M``,
  ``p``, ``q``, ``r``, target DSB set) plus the calibrated per-bit
  protocol overhead and disturbance model;
* :class:`CovertChannel` — base class implementing threshold calibration
  (alternating training pattern, Section V-B) and message transmission
  with rate/error accounting (Section V);
* :class:`NonMtChannel` and :class:`MtChannel` — the two bit protocols
  (Init/Encode/Decode on one thread; receiver and sender on sibling
  hyper-threads), written once for every channel that runs them;
* :class:`TransmissionResult` — rates in Kbps on the target machine and
  Wagner–Fischer error rates.

A concrete channel supplies only what differs: a :class:`NonMtChannel`
its two bit loops (usually from ``bit_body(0)``/``bit_body(1)``), an
:class:`MtChannel` its receiver and sender loops.  Each bit's
:meth:`CovertChannel.send_bit` returns a :class:`BitSample` with the
receiver's (noisy) observation and the true wall-clock cycles the bit
consumed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.analysis.bits import alternating_bits, bits_to_string
from repro.analysis.outcome import ScenarioOutcome, leak_kbps
from repro.analysis.threshold import ThresholdDecoder, calibrate_threshold
from repro.analysis.wagner_fischer import error_rate
from repro.errors import ChannelError
from repro.frontend.engine import LoopReport
from repro.isa.blocks import MixBlock
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine

if TYPE_CHECKING:
    from repro.measure.rapl import RaplInterface

__all__ = [
    "ChannelConfig",
    "BitSample",
    "TransmissionResult",
    "CovertChannel",
    "NonMtChannel",
    "MtChannel",
]


@dataclass(frozen=True)
class ChannelConfig:
    """Protocol parameters, in the paper's notation (Section IV).

    Attributes
    ----------
    d:
        Blocks accessed by the receiver per Init/Decode step (paper
        default 6 for eviction channels, 5 for misalignment channels).
    M:
        Total blocks touched by sender+receiver for misalignment
        channels (``M <= N``; paper default 8).
    p:
        Receiver iterations (init+decode) per transmitted bit.
    q:
        Sender iterations (encode) per transmitted bit.
    r:
        LCP instruction pairs per loop for slow-switch channels.
    target_set:
        DSB set ``x`` the channel operates on.
    decoy_set:
        DSB set ``y`` used by the *stealthy* non-MT variants to encode a
        0 with matching work in a harmless set.
    bit_overhead_cycles:
        Per-bit protocol overhead (timer serialisation, loop setup,
        synchronisation) charged to the transmission wall clock.
    measurement_overhead_cycles:
        Per-receiver-measurement overhead charged for MT channels, where
        every decode traversal is individually timed.  A serialising
        rdtscp pair costs ~32 cycles, but pipelined measurement loops
        overlap most of it with the probed work; the default models the
        amortised cost.
    disturb_rate / disturb_mean_cycles:
        Per-bit probability and exponential mean of an OS-preemption-like
        disturbance landing inside the measured region; the dominant
        error source for time-sliced channels.
    sync_fail_rate:
        MT channels only: probability that sender and receiver windows
        misalign for a bit, leaving only partial overlap — the dominant
        error source in the hyper-threaded setting.
    """

    d: int = 6
    M: int = 8
    p: int = 10
    q: int = 10
    r: int = 16
    target_set: int = 3
    decoy_set: int = 19
    bit_overhead_cycles: float = 2200.0
    measurement_overhead_cycles: float = 8.0
    disturb_rate: float = 0.04
    disturb_mean_cycles: float = 250.0
    sync_fail_rate: float = 0.30

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ChannelError(f"d must be >= 1, got {self.d}")
        if self.M < 1:
            raise ChannelError(f"M must be >= 1, got {self.M}")
        if self.p < 1 or self.q < 1:
            raise ChannelError("p and q must be >= 1")
        if self.r < 1:
            raise ChannelError(f"r must be >= 1, got {self.r}")
        if self.target_set < 0 or self.decoy_set < 0:
            raise ChannelError("DSB set indices must be non-negative")
        if self.target_set == self.decoy_set:
            raise ChannelError("decoy_set must differ from target_set")
        if not 0 <= self.disturb_rate <= 1 or not 0 <= self.sync_fail_rate <= 1:
            raise ChannelError("rates must be probabilities")

    def with_overrides(self, **kwargs: object) -> "ChannelConfig":
        return replace(self, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class BitSample:
    """Observation produced by transmitting one bit.

    Attributes
    ----------
    measurement:
        What the receiver observed (cycles for timing channels, nJ for
        power channels) — already noisy.
    elapsed_cycles:
        True wall-clock cycles the bit consumed end to end, used for
        transmission-rate accounting.
    sent:
        The bit that was transmitted (ground truth).
    """

    measurement: float
    elapsed_cycles: float
    sent: int


@dataclass
class TransmissionResult:
    """Outcome of transmitting a message over a channel."""

    sent_bits: list[int]
    received_bits: list[int]
    samples: list[BitSample]
    decoder: ThresholdDecoder
    total_cycles: float
    kbps: float
    error_rate: float
    channel_name: str = ""
    machine_name: str = ""

    @property
    def sent_string(self) -> str:
        return bits_to_string(self.sent_bits)

    @property
    def received_string(self) -> str:
        return bits_to_string(self.received_bits)

    def to_outcome(self, frequency_hz: float = 0.0) -> ScenarioOutcome:
        """Normalise into the shared outcome record scenarios consume.

        ``frequency_hz`` is needed because the result only stores the
        machine's *name*; pass ``machine.spec.frequency_hz`` to make the
        outcome's own ``kbps`` property agree with :attr:`kbps`.
        """
        correct = sum(
            1 for s, r in zip(self.sent_bits, self.received_bits) if s == r
        )
        return ScenarioOutcome(
            label=self.channel_name,
            machine=self.machine_name,
            units_total=len(self.sent_bits),
            units_correct=correct,
            bits=len(self.sent_bits),
            cycles=self.total_cycles,
            frequency_hz=frequency_hz,
            error_rate=self.error_rate,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.channel_name} on {self.machine_name}: "
            f"{len(self.sent_bits)} bits, {self.kbps:.2f} Kbps, "
            f"error {self.error_rate * 100:.2f}%"
        )


class CovertChannel(abc.ABC):
    """Base class: calibration + transmission over any concrete channel."""

    #: Human-readable channel name (overridden by subclasses).
    name: str = "abstract"
    #: Whether the channel needs hyper-threading.
    requires_smt: bool = False
    #: Whether the channel needs RAPL access.
    requires_rapl: bool = False
    #: Protocol parameters that differ from :class:`ChannelConfig`'s,
    #: applied when no config is given (the paper's defaults for the
    #: channel; ``repro.service.spec.CHANNEL_DEFAULTS`` reads them too).
    DEFAULTS: Mapping[str, object] = {}

    def __init__(self, machine: Machine, config: ChannelConfig | None = None) -> None:
        self.machine = machine
        self.config = config or ChannelConfig(**self.DEFAULTS)
        if self.requires_smt and not machine.spec.smt:
            raise ChannelError(
                f"{self.name} needs hyper-threading, which {machine.spec.name} "
                "does not provide"
            )
        if self.requires_rapl and not machine.spec.rapl:
            raise ChannelError(
                f"{self.name} needs RAPL access, disabled on {machine.spec.name}"
            )
        self._decoder: ThresholdDecoder | None = None
        self._rng = machine.rngs.stream(f"channel/{self.name}")
        # MT channels use fixed-duration bit slots: the receiver cannot
        # end a slot early just because the sender idled.  The slot
        # length is learned as the maximum wall clock seen (calibration
        # traffic establishes it before the message is sent).
        self._slot_cycles = 0.0
        # The previous bit sent, for the edge-dependent slip rate.
        self._prev_bit: int | None = None

    # ------------------------------------------------------------------
    # to be provided by concrete channels
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def send_bit(self, m: int) -> BitSample:
        """Run Init/Encode/Decode for one bit and return the observation."""

    # ------------------------------------------------------------------
    # calibration (Section V-B)
    # ------------------------------------------------------------------
    def calibrate(
        self, training_bits: int = 16, warmup_bits: int = 4
    ) -> ThresholdDecoder:
        """Send a known alternating pattern and fit the decision threshold.

        ``warmup_bits`` transmissions are discarded first so cold
        microarchitectural state (initial MITE fills) does not pollute
        the training classes.
        """
        if training_bits < 4:
            raise ChannelError(
                f"need at least 4 training bits, got {training_bits}"
            )
        for bit in alternating_bits(max(warmup_bits, 0)):
            self.send_bit(bit)
        pattern = alternating_bits(training_bits)
        zero_obs, one_obs = [], []
        for bit in pattern:
            sample = self.send_bit(bit)
            (one_obs if bit else zero_obs).append(sample.measurement)
        self._decoder = calibrate_threshold(zero_obs, one_obs)
        return self._decoder

    @property
    def decoder(self) -> ThresholdDecoder:
        if self._decoder is None:
            raise ChannelError(
                f"{self.name} is not calibrated; call calibrate() or transmit()"
            )
        return self._decoder

    # ------------------------------------------------------------------
    # transmission (Section V)
    # ------------------------------------------------------------------
    def transmit(
        self,
        bits: Sequence[int],
        calibrate: bool = True,
        training_bits: int = 16,
    ) -> TransmissionResult:
        """Transmit ``bits``; returns rates and Wagner–Fischer error rate.

        Calibration traffic is not charged to the transmission rate (the
        paper reports steady-state channel bandwidth).
        """
        bits = [int(b) for b in bits]
        if any(b not in (0, 1) for b in bits):
            raise ChannelError("message bits must be 0 or 1")
        if not bits:
            raise ChannelError("cannot transmit an empty message")
        if calibrate or self._decoder is None:
            self.calibrate(training_bits)
        samples = [self.send_bit(b) for b in bits]
        received = [self.decoder.decide(s.measurement) for s in samples]
        total_cycles = sum(s.elapsed_cycles for s in samples)
        return TransmissionResult(
            sent_bits=bits,
            received_bits=received,
            samples=samples,
            decoder=self.decoder,
            total_cycles=total_cycles,
            kbps=leak_kbps(len(bits), total_cycles, self.machine.spec.frequency_hz),
            error_rate=error_rate(bits, received),
            channel_name=self.name,
            machine_name=self.machine.spec.name,
        )

    # ------------------------------------------------------------------
    # shared noise helpers
    # ------------------------------------------------------------------
    def _slip_rate(self, m: int) -> float:
        """Per-bit synchronisation-slip probability for MT channels.

        Desynchronisation happens at the sender's activity *edges*: a
        bit whose value differs from the previous one requires the
        sender to start or stop mid-protocol, which is when windows
        misalign.  Steady runs of identical bits barely slip — this is
        why the paper's all-0s/all-1s messages decode essentially
        error-free while alternating and random patterns do not
        (Table II).
        """
        previous = self._prev_bit
        self._prev_bit = m
        if previous is None or previous != m:
            return self.config.sync_fail_rate
        return self.config.sync_fail_rate * 0.15

    def _overlap(self, m: int) -> float:
        """Fraction of the bit's window the sender and receiver share.

        A slipped bit only partially overlaps (m=1), or stray sibling
        activity bleeds into an idle slot (m=0); this is the dominant
        MT error source.  Draws the slip, then the overlap, from the
        channel's stream.
        """
        slipped = self._rng.random() < self._slip_rate(m)
        if m:
            return self._rng.uniform(0.25, 0.75) if slipped else 1.0
        return self._rng.uniform(0.05, 0.40) if slipped else 0.0

    def _slotted(self, wall_cycles: float) -> float:
        """Stretch a bit's wall clock to the channel's slot duration."""
        self._slot_cycles = max(self._slot_cycles, wall_cycles)
        return self._slot_cycles

    def _disturbance(self) -> float:
        """OS-preemption-like disturbance for time-sliced measurements."""
        cfg = self.config
        if cfg.disturb_rate and self._rng.random() < cfg.disturb_rate:
            return float(self._rng.exponential(cfg.disturb_mean_cycles))
        return 0.0

    def _validate_bit(self, m: int) -> int:
        if m not in (0, 1):
            raise ChannelError(f"bit must be 0 or 1, got {m!r}")
        return m


class NonMtChannel(CovertChannel):
    """One-thread protocol (Sections IV-C to IV-E, VI, VII-2/3).

    Init, Encode and Decode run back to back as one loop on one hardware
    thread, and the receiver observes the whole loop.  A channel builds
    its two bit loops once, at construction (``self._programs``, usually
    from :meth:`bit_body` via :meth:`_bit_programs`); subclasses change
    only where the loop runs (:meth:`_run`) and what reads it
    (:attr:`meter`).
    """

    #: RAPL interface whose energy reading is the observation; ``None``
    #: reads the cycle timer instead.
    meter: RaplInterface | None = None

    _programs: tuple[LoopProgram, LoopProgram]

    def bit_body(self, m: int) -> list[MixBlock]:
        """The Init + Encode + Decode block sequence for one bit value."""
        raise NotImplementedError

    def _bit_programs(self) -> tuple[LoopProgram, LoopProgram]:
        """The bit-0 and bit-1 loops: ``p`` iterations of each body,
        labelled with the channel's name."""
        p, label = self.config.p, f"{self.name}.bit"
        return (
            LoopProgram(self.bit_body(0), p, label=f"{label}0"),
            LoopProgram(self.bit_body(1), p, label=f"{label}1"),
        )

    def _run(self, program: LoopProgram) -> LoopReport:
        return self.machine.run_loop(program)

    def send_bit(self, m: int) -> BitSample:
        program = self._programs[self._validate_bit(m)]
        report = self._run(program)
        true_cycles = report.cycles + self._disturbance()
        if self.meter is None:
            measured = self.machine.timer.measure(true_cycles).measured_cycles
        else:
            measured = self.meter.measure_region(
                report.energy_nj, true_cycles
            ).measured_energy_nj
        elapsed = true_cycles + self.config.bit_overhead_cycles
        return BitSample(measurement=measured, elapsed_cycles=elapsed, sent=m)


class MtChannel(CovertChannel):
    """Hyper-threaded protocol (Sections IV-A/B, V-A, VII-1).

    The receiver times ``p`` decode traversals while the sender, on the
    sibling thread, runs ``q`` encode steps (m=1) or idles (m=0).  Each
    bit draws a synchronisation slip and overlap (:meth:`_overlap`),
    runs that share of both loops concurrently and the rest of the
    receiver's alone, and charges a fixed-duration bit slot.  A channel
    supplies the receiver and sender loops (``self._receiver``,
    ``self._sender``), which are resized per bit.
    """

    requires_smt = True
    #: Wall-clock cycles charged once per bit before the loops run.
    _entry_cycles = 0.0
    #: Multiplier on the sender's cycles in the concurrent region.
    _sender_slowdown = 1.0

    _receiver: LoopProgram
    _sender: LoopProgram

    def send_bit(self, m: int) -> BitSample:
        m = self._validate_bit(m)
        cfg = self.config
        overlap = self._overlap(m)

        receiver_cycles = 0.0
        wall_cycles = self._entry_cycles
        overlap_q = round(cfg.q * overlap)
        overlap_p = round(cfg.p * overlap)
        if overlap_q >= 1 and overlap_p >= 1:
            result = self.machine.run_smt(
                self._receiver.with_iterations(overlap_p),
                self._sender.with_iterations(overlap_q),
            )
            receiver_cycles += result.primary.cycles
            # The concurrent region lasts as long as the slower thread.
            wall_cycles += max(
                result.primary.cycles,
                result.secondary.cycles * self._sender_slowdown,
            )
        solo_p = cfg.p - max(overlap_p, 0)
        if solo_p >= 1:
            report = self.machine.run_loop(self._receiver.with_iterations(solo_p))
            receiver_cycles += report.cycles
            wall_cycles += report.cycles
        measured = self.machine.smt_timer.measure(receiver_cycles).measured_cycles
        elapsed = (
            self._slotted(wall_cycles)
            + cfg.p * cfg.measurement_overhead_cycles
            + cfg.bit_overhead_cycles
        )
        return BitSample(measurement=measured, elapsed_cycles=elapsed, sent=m)
