#!/usr/bin/env python3
"""Scenario: extracting an exponentiation key from its DSB footprint.

The paper's channels need a cooperating sender.  This extension shows
the *side-channel* version: a victim performing square-and-multiply
exponentiation executes its multiply routine only for 1-bits of the key.
Even if the arithmetic were perfectly constant-time in the data caches,
the multiply routine's *instructions* enter the DSB on exactly the
1-bits — and a time-sliced attacker who primes and probes that DSB set
reads the key bit by bit, without ever causing an L1 cache miss.

Run:  python examples/key_extraction.py
"""

from __future__ import annotations

from repro import GOLD_6226, Machine
from repro.analysis.bits import bits_to_string, random_bits
from repro.sidechannel import DsbFootprintAttack, SquareAndMultiplyVictim


def main() -> None:
    machine = Machine(GOLD_6226, seed=1717)
    key = random_bits(64, machine.rngs.stream("victim-key"))
    victim = SquareAndMultiplyVictim(machine, key)
    print(f"victim   : square-and-multiply over a 64-bit key")
    print(f"layout   : square routine in DSB set {victim.square_set}, "
          f"multiply routine in DSB set {victim.multiply_set}")

    attack = DsbFootprintAttack(machine, victim, attempts=5)
    recovery = attack.run()

    print(f"threshold: {recovery.threshold:.0f} cycles "
          "(calibrated offline from the attacker's own copy of the binary)")
    print(f"true key : {bits_to_string(recovery.true_bits)}")
    print(f"recovered: {bits_to_string(recovery.recovered_bits)}")
    print(f"accuracy : {recovery.accuracy * 100:.1f}% "
          f"({recovery.recovered_int:#018x})")

    stats = machine.l1i.stats
    print(f"L1I      : {stats.misses} misses over the whole attack "
          "(cold fills only; the probe loop never touches the caches)")
    if recovery.accuracy == 1.0:
        print("the full key leaked through instruction-footprint timing alone.")


if __name__ == "__main__":
    main()
