"""Table IV — slow-switch (LCP) attack rates on G6226 and E-2288G."""

from __future__ import annotations

from _harness import format_table, run_and_report

from repro.analysis.bits import alternating_bits
from repro.channels.base import ChannelConfig
from repro.channels.slow_switch import SlowSwitchChannel
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226, XEON_E2288G

MESSAGE_BITS = 64

#: Paper values: (Kbps, error %).
PAPER = {
    "Gold 6226": (678.11, 6.74),
    "Xeon E-2288G": (1351.43, 0.64),
}


def experiment() -> dict:
    results = {}
    rows = []
    for spec in (GOLD_6226, XEON_E2288G):
        machine = Machine(spec, seed=404)
        channel = SlowSwitchChannel(machine, ChannelConfig(r=16))
        result = channel.transmit(alternating_bits(MESSAGE_BITS))
        results[spec.name] = (result.kbps, result.error_rate)
        paper_rate, paper_err = PAPER[spec.name]
        rows.append(
            (
                spec.name,
                f"{result.kbps:.2f}",
                f"{result.error_rate * 100:.2f}%",
                f"{paper_rate:.2f}",
                f"{paper_err:.2f}%",
            )
        )
    print(
        format_table(
            "Table IV: non-MT slow-switch attacks (r=16, alternating message)",
            ["machine", "Kbps", "error", "paper Kbps", "paper err"],
            rows,
        )
    )
    return results


def test_table4_slow_switch():
    results = run_and_report("table4_slow_switch", experiment)
    gold_rate, gold_err = results["Gold 6226"]
    azure_rate, azure_err = results["Xeon E-2288G"]
    # Rates in the paper's band, with the higher-frequency E-2288G faster.
    assert 200 < gold_rate < 2500
    assert 200 < azure_rate < 3500
    assert azure_rate > gold_rate
    # Error rates stay in the single digits.
    assert gold_err < 0.10
    assert azure_err < 0.10
