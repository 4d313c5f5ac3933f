"""Extension — DSB instruction-footprint key extraction reliability.

Sweeps the side-channel attack (square-and-multiply victim, Section
"extensions" of DESIGN.md) over the number of observed decryptions and
the timing-noise amplitude: one observation already recovers most key
bits; a handful of repetitions with majority voting recovers whole keys
even under amplified noise.
"""

from __future__ import annotations

from _harness import format_table, run_and_report, run_sweep

from repro.analysis.bits import random_bits
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.measure.noise import NONMT_PROFILE
from repro.sidechannel import DsbFootprintAttack, SquareAndMultiplyVictim
from repro.sweep import ParameterSweep, SweepPoint

KEY_BITS = 48


def run_point(point: SweepPoint) -> dict:
    machine = Machine(
        GOLD_6226,
        seed=point.seed,
        timing_noise=NONMT_PROFILE.scaled(point["noise"]),
    )
    key = random_bits(KEY_BITS, machine.rngs.stream("key"))
    victim = SquareAndMultiplyVictim(machine, key)
    attack = DsbFootprintAttack(machine, victim, attempts=point["attempts"])
    recovery = attack.run()
    return {"accuracy": recovery.accuracy}


def experiment() -> dict:
    sweep = ParameterSweep(
        run_point,
        grid={"attempts": [1, 3, 5], "noise": [1.0, 2.0, 4.0]},
        trials=3,
        base_seed=3131,
    )
    table = run_sweep(sweep)
    print("Key extraction: bit accuracy vs observations and noise "
          f"({KEY_BITS}-bit keys, 3 trials per cell)")
    print(table.render(precision=3))
    return {
        (row["attempts"], row["noise"]): row["accuracy_mean"]
        for row in table.rows()
    }


def test_extension_sidechannel():
    results = run_and_report("extension_sidechannel", experiment)
    # One observation at nominal noise already recovers most bits...
    assert results[(1, 1.0)] > 0.9
    # ...five observations recover (essentially) the whole key.
    assert results[(5, 1.0)] >= 0.999
    # Repetition buys back what noise takes: at 4x noise, 5 attempts
    # beat 1 attempt decisively.
    assert results[(5, 4.0)] > results[(1, 4.0)]
    # Even heavy noise leaves the channel far above guessing.
    assert results[(1, 4.0)] > 0.6
