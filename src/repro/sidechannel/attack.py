"""DSB footprint prime+probe against a secret-dependent victim.

Per key-bit window the attacker (time-sliced on the same hardware
thread, like the paper's non-MT setting):

1. **Prime** — executes 8 of its own blocks mapping to the multiply
   routine's DSB set, filling all ways;
2. lets the victim process one key bit;
3. **Probe** — re-executes its 8 blocks once, timed: if the victim's
   multiply code ran, its 3 line fills evicted attacker lines and the
   probe pays MITE redelivery — bit 1.  A 0-bit leaves the set intact —
   fast probe, bit 0.

The channel never touches the L1 caches (the attacker's blocks stride
the L1I like every chain in this library), so the classic cache-attack
detectors see nothing.  Repetition across ``attempts`` decryptions plus
a median-threshold vote handles timing noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.threshold import calibrate_threshold
from repro.errors import ConfigurationError
from repro.isa.blocks import DSB_WAYS
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.sidechannel.victim import SquareAndMultiplyVictim

__all__ = ["DsbFootprintAttack", "KeyRecovery"]


@dataclass(frozen=True)
class KeyRecovery:
    """Result of one key-extraction run."""

    true_bits: tuple[int, ...]
    recovered_bits: tuple[int, ...]
    probe_measurements: tuple[float, ...]
    threshold: float

    @property
    def accuracy(self) -> float:
        matches = sum(a == b for a, b in zip(self.true_bits, self.recovered_bits))
        return matches / len(self.true_bits)

    @property
    def recovered_int(self) -> int:
        value = 0
        for bit in self.recovered_bits:
            value = (value << 1) | bit
        return value


class DsbFootprintAttack:
    """Recovers a victim's key bits from its DSB instruction footprint."""

    def __init__(
        self,
        machine: Machine,
        victim: SquareAndMultiplyVictim,
        attempts: int = 5,
        prime_ways: int = 8,
        region_base: int = 0x06_000000,
    ) -> None:
        if attempts < 1:
            raise ConfigurationError("attempts must be >= 1")
        if not 1 <= prime_ways <= DSB_WAYS:
            raise ConfigurationError(f"prime_ways must be in 1..{DSB_WAYS}")
        self.machine = machine
        self.victim = victim
        self.attempts = attempts
        layout = machine.layout(region_base=region_base)
        self._prime_program = LoopProgram(
            layout.chain(victim.multiply_set, prime_ways, label="attack.prime"),
            3,  # enough iterations to fill and settle
            "attack.prime",
        )

    # ------------------------------------------------------------------
    def _probe_once(self) -> float:
        probe = self._prime_program.with_iterations(1)
        report = self.machine.run_loop(probe)
        return self.machine.timer.measure(report.cycles).measured_cycles

    def _observe_window(self) -> float:
        """Prime, let the victim process one bit, probe."""
        self.machine.run_loop(self._prime_program)
        self.victim.process_next_bit()
        return self._probe_once()

    def _calibrate(self) -> float:
        """Threshold from synthetic 0/1 windows on the attacker's side.

        The attacker knows the victim binary's layout, so it can rehearse
        both outcomes offline: probe after nothing (bit 0) and probe
        after executing its own copy of the multiply routine (bit 1).
        """
        zeros, ones = [], []
        rehearsal = self.victim.multiply_program
        for _ in range(8):
            self.machine.run_loop(self._prime_program)
            zeros.append(self._probe_once())
            self.machine.run_loop(self._prime_program)
            self.machine.run_loop(rehearsal.with_iterations(1))
            ones.append(self._probe_once())
        return calibrate_threshold(zeros, ones).threshold

    # ------------------------------------------------------------------
    def run(self) -> KeyRecovery:
        """Observe ``attempts`` full decryptions and majority-vote bits."""
        threshold = self._calibrate()
        n_bits = len(self.victim.key_bits)
        votes = np.zeros(n_bits, dtype=int)
        measurements = np.zeros(n_bits, dtype=float)
        for _ in range(self.attempts):
            self.victim.reset()
            for index in range(n_bits):
                measured = self._observe_window()
                measurements[index] += measured
                if measured > threshold:
                    votes[index] += 1
        recovered = tuple(int(2 * v > self.attempts) for v in votes)
        return KeyRecovery(
            true_bits=tuple(self.victim.key_bits),
            recovered_bits=recovered,
            probe_measurements=tuple(measurements / self.attempts),
            threshold=threshold,
        )
