"""Streamline-style asynchronous ring-buffer channel (paper ref. [25]).

The paper's footnote 2: "To fully optimize the transmission rate and
error rate, techniques such as the ones used in [25] (Streamline, ASPLOS
2021) can be further exploited."  Streamline's idea: stop synchronising
per bit.  The sender writes a long symbol sequence across a *ring* of
cache sets — here DSB sets — and the receiver sweeps the ring behind it,
so the per-bit synchronisation overhead (the dominant cost of the
paper's channels at p=q=10) is amortised over a whole ring round.

Mechanics per round of ``ring_sets`` bits:

1. the receiver holds all ways of every ring set primed with its own
   blocks;
2. the sender walks the ring: for bit ``i`` it executes one block
   mapping to ring set ``i mod ring_sets`` iff the bit is 1 (evicting
   one receiver line there), else nothing;
3. the receiver sweeps the ring, timing one probe traversal per set:
   an evicted line means MITE redelivery — bit 1 — and the traversal
   itself re-primes the set for the next round.

One rdtscp pair per *set probe* instead of a three-step protocol per
bit, and one calibration for the whole stream.
"""

from __future__ import annotations

from repro.analysis.outcome import leak_kbps
from repro.channels.base import BitSample, ChannelConfig, CovertChannel
from repro.errors import ChannelError
from repro.isa.blocks import DSB_SETS, DSB_WAYS
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine

__all__ = ["RingBufferChannel"]


class RingBufferChannel(CovertChannel):
    """Asynchronous DSB-set ring channel (non-MT, time-sliced)."""

    name = "ring-buffer-streamline"
    requires_smt = False

    def __init__(
        self,
        machine: Machine,
        config: ChannelConfig | None = None,
        ring_sets: int = 16,
        region_base: int = 0x07_000000,
    ) -> None:
        super().__init__(machine, config)
        if not 2 <= ring_sets <= DSB_SETS:
            raise ChannelError(f"ring_sets must be in 2..{DSB_SETS}, got {ring_sets}")
        self.ring_sets = ring_sets
        # The ring set the next single-bit slot uses.
        self._slot_cursor = 0
        layout = machine.layout(region_base=region_base)
        self._prime_programs = [
            LoopProgram(
                layout.chain(s, DSB_WAYS, label=f"ring.prime{s}"),
                2,
                f"ring.prime{s}",
            )
            for s in range(ring_sets)
        ]
        self._sender_programs = [
            LoopProgram(
                layout.chain(s, 1, first_slot=DSB_WAYS + 2, label=f"ring.send{s}"),
                1,
                f"ring.send{s}",
            )
            for s in range(ring_sets)
        ]

    # ------------------------------------------------------------------
    # low-level ring operations
    # ------------------------------------------------------------------
    def _prime_all(self) -> float:
        cycles = 0.0
        for program in self._prime_programs:
            cycles += self.machine.run_loop(program).cycles
        return cycles

    def _probe_set(self, ring_set: int) -> tuple[float, float]:
        """Probe (and re-prime) one ring set; returns (measured, true)."""
        probe = self._prime_programs[ring_set].with_iterations(1)
        report = self.machine.run_loop(probe)
        true_cycles = report.cycles + self._disturbance()
        measured = self.machine.timer.measure(true_cycles).measured_cycles
        return measured, true_cycles

    # ------------------------------------------------------------------
    # stream protocol
    # ------------------------------------------------------------------
    def send_bit(self, m: int) -> BitSample:
        """Single-bit interface (used by calibration): one ring slot."""
        m = self._validate_bit(m)
        ring_set = self._slot_cursor
        self._slot_cursor = (ring_set + 1) % self.ring_sets
        sender_cycles = 0.0
        if m:
            sender_cycles = self.machine.run_loop(
                self._sender_programs[ring_set]
            ).cycles
        measured, probe_cycles = self._probe_set(ring_set)
        elapsed = sender_cycles + probe_cycles + self.config.measurement_overhead_cycles
        return BitSample(measurement=measured, elapsed_cycles=elapsed, sent=m)

    def calibrate(self, training_bits: int = 16, warmup_bits: int = 4):
        self._prime_all()  # establish the ring before any training
        return super().calibrate(training_bits, warmup_bits)

    def transmit_stream(self, bits, training_bits: int = 16):
        """Asynchronous transmission: ring rounds, no per-bit sync.

        Returns the same :class:`TransmissionResult` shape as
        :meth:`transmit` but with the ring protocol's cost model: per
        round, the sender walks the ring once and the receiver sweeps
        once; only one timer read per set probe is charged.
        """
        from repro.analysis.wagner_fischer import error_rate
        from repro.channels.base import TransmissionResult

        bits = [int(b) for b in bits]
        if not bits:
            raise ChannelError("cannot transmit an empty message")
        if any(b not in (0, 1) for b in bits):
            raise ChannelError("message bits must be 0 or 1")
        self.calibrate(training_bits)

        samples: list[BitSample] = []
        total_cycles = 0.0
        for round_start in range(0, len(bits), self.ring_sets):
            chunk = bits[round_start : round_start + self.ring_sets]
            # Sender pass: one block execution per 1-bit, nothing else.
            sender_cycles = 0.0
            for offset, bit in enumerate(chunk):
                if bit:
                    sender_cycles += self.machine.run_loop(
                        self._sender_programs[offset]
                    ).cycles
            # Receiver sweep: one timed probe per slot (also re-primes).
            sweep_cycles = 0.0
            for offset, bit in enumerate(chunk):
                measured, probe_cycles = self._probe_set(offset)
                sweep_cycles += (
                    probe_cycles + self.config.measurement_overhead_cycles
                )
                samples.append(
                    BitSample(
                        measurement=measured,
                        elapsed_cycles=probe_cycles,
                        sent=bit,
                    )
                )
            # One sender pass + one receiver sweep per round: two
            # time-slice switches, amortised over ring_sets bits.
            total_cycles += (
                sender_cycles + sweep_cycles + self.config.bit_overhead_cycles
            )
        received = [self.decoder.decide(s.measurement) for s in samples]
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
