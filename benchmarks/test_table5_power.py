"""Table V — power (RAPL) covert channels on the Gold 6226.

The paper: eviction- and misalignment-based non-MT channels read through
RAPL, p = q = 240,000 iterations per bit (the ~20 kHz counter refresh
forces long bits), d=6 — yielding ~0.6-0.7 Kbps with double-digit error
rates.  Still above the 100 bps the TCSEC calls a high-bandwidth channel.
"""

from __future__ import annotations

from _harness import format_table, run_and_report

from repro.analysis.bits import alternating_bits
from repro.channels.power import PowerEvictionChannel, PowerMisalignmentChannel
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226

MESSAGE_BITS = 48

#: Paper values: (Kbps, error %).
PAPER = {
    "power-eviction": (0.66, 18.87),
    "power-misalignment": (0.63, 9.07),
}


def experiment() -> dict:
    results = {}
    rows = []
    for label, cls in (
        ("power-eviction", PowerEvictionChannel),
        ("power-misalignment", PowerMisalignmentChannel),
    ):
        machine = Machine(GOLD_6226, seed=505)
        channel = cls(machine)
        result = channel.transmit(alternating_bits(MESSAGE_BITS), training_bits=12)
        results[label] = (result.kbps, result.error_rate)
        paper_rate, paper_err = PAPER[label]
        rows.append(
            (
                label,
                f"{result.kbps:.3f}",
                f"{result.error_rate * 100:.2f}%",
                f"{paper_rate:.2f}",
                f"{paper_err:.2f}%",
            )
        )
    print(
        format_table(
            "Table V: non-MT power channels on Gold 6226 (d=6, p=q=240,000)",
            ["channel", "Kbps", "error", "paper Kbps", "paper err"],
            rows,
        )
    )
    return results


def test_table5_power():
    results = run_and_report("table5_power", experiment)
    for label, (kbps, err) in results.items():
        # Sub-Kbps rates, orders of magnitude below the timing channels,
        # but above the TCSEC 100 bps high-bandwidth threshold.
        assert 0.1 < kbps < 2.0, label
        assert err < 0.35, label
