"""Table II — MT eviction channel (d=1) under four message patterns.

The paper transmits all-0s, all-1s, alternating, and random messages over
the MT eviction channel with d=1 on the three SMT machines.  Constant
messages keep the frontend path steady (cleanest), alternating flips it
every bit, and random messages are the worst.
"""

from __future__ import annotations

from _harness import format_table, run_and_report

from repro.analysis.bits import MESSAGE_PATTERNS
from repro.channels.base import ChannelConfig
from repro.channels.eviction import MtEvictionChannel
from repro.machine.machine import Machine
from repro.machine.specs import SMT_SPECS

MESSAGE_BITS = 64

#: Paper values (Kbps, error) for comparison printing.
PAPER = {
    ("all_zeros", "Gold 6226"): (42.66, 0.0),
    ("all_zeros", "Xeon E-2174G"): (49.53, 0.0),
    ("all_zeros", "Xeon E-2286G"): (87.33, 0.0),
    ("all_ones", "Gold 6226"): (55.28, 0.0),
    ("all_ones", "Xeon E-2174G"): (61.17, 0.0),
    ("all_ones", "Xeon E-2286G"): (102.39, 0.0),
    ("alternating", "Gold 6226"): (50.21, 2.68),
    ("alternating", "Xeon E-2174G"): (58.86, 10.69),
    ("alternating", "Xeon E-2286G"): (64.96, 12.56),
    ("random", "Gold 6226"): (18.28, 22.57),
    ("random", "Xeon E-2174G"): (21.80, 18.53),
    ("random", "Xeon E-2286G"): (25.61, 19.83),
}


def experiment() -> dict:
    results: dict[tuple[str, str], tuple[float, float]] = {}
    rows = []
    for spec in SMT_SPECS:
        machine = Machine(spec, seed=202)
        patterns = MESSAGE_PATTERNS(MESSAGE_BITS, machine.rngs.stream("table2"))
        for pattern_name, bits in patterns.items():
            channel = MtEvictionChannel(
                Machine(spec, seed=202), ChannelConfig(d=1, p=1000, q=100)
            )
            result = channel.transmit(bits)
            results[(pattern_name, spec.name)] = (result.kbps, result.error_rate)
            paper_rate, paper_err = PAPER[(pattern_name, spec.name)]
            rows.append(
                (
                    pattern_name,
                    spec.name,
                    f"{result.kbps:.2f}",
                    f"{result.error_rate * 100:.2f}%",
                    f"{paper_rate:.2f}",
                    f"{paper_err:.2f}%",
                )
            )
    print(
        format_table(
            "Table II: MT eviction channel, d=1, four message patterns",
            ["pattern", "machine", "rate (Kbps)", "error", "paper rate", "paper err"],
            rows,
        )
    )
    return results


def test_table2_patterns():
    results = run_and_report("table2_patterns", experiment)
    for spec in SMT_SPECS:
        constant_err = max(
            results[("all_zeros", spec.name)][1],
            results[("all_ones", spec.name)][1],
        )
        random_err = results[("random", spec.name)][1]
        # Paper shape: constant patterns decode best; random worst.
        assert constant_err <= random_err + 0.02, spec.name
        assert random_err > 0.0, spec.name
        # All rates land within an order of magnitude of the paper's band.
        for pattern in ("all_zeros", "all_ones", "alternating", "random"):
            rate = results[(pattern, spec.name)][0]
            assert 5.0 < rate < 500.0, (pattern, spec.name, rate)
