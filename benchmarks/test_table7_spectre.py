"""Table VII — L1 miss rates of Spectre v1 with different covert channels.

Recovers the same secret through all six channels (three cache baselines
from [35], the two L1I channels, and the paper's new frontend channel)
and reports each attack's L1 miss rate and leak bandwidth.  The headline
result: the frontend channel's miss rate is the lowest because DSB
probing bypasses the caches entirely.  Its bandwidth is the *lowest* of
the data-backed channels, as the paper states: the frontend timing
margin is tens of cycles (vs ~200 for DRAM-vs-L1 loads), so each chunk
needs several transient attempts with majority voting where the cache
channels need one.
"""

from __future__ import annotations

from _harness import format_table, run_and_report

from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.spectre.attack import SpectreV1Attack
from repro.spectre.channels import ALL_SPECTRE_CHANNELS

SECRET = b"LeakyFrontendsHPCA2022"

#: Paper values (L1 miss rate %), Table VII.
PAPER = {
    "mem-flush-reload": 2.81,
    "l1d-flush-reload": 4.79,
    "l1d-lru": 4.48,
    "l1i-flush-reload": 0.45,
    "l1i-prime-probe": 0.48,
    "frontend-dsb": 0.21,
}


def experiment() -> dict:
    results = {}
    rows = []
    for cls in ALL_SPECTRE_CHANNELS:
        machine = Machine(GOLD_6226, seed=707)
        channel = cls(machine)
        # The frontend channel's timing margin is tens of cycles, so a
        # reliable attack majority-votes over several transient attempts;
        # the cache channels' DRAM-vs-L1 margins decode in one.
        attempts = 8 if cls.__name__ == "FrontendDsbChannel" else 1
        report = SpectreV1Attack(
            machine, channel, SECRET, attempts_per_chunk=attempts
        ).run()
        results[channel.name] = report
        rows.append(
            (
                channel.name,
                f"{report.l1_miss_rate * 100:.2f}%",
                f"{PAPER[channel.name]:.2f}%",
                f"{report.leak_kbps:.1f}",
                f"{report.accuracy * 100:.1f}%",
                report.recovered.decode(errors="replace"),
            )
        )
    print(
        format_table(
            "Table VII: Spectre v1 per covert channel (Gold 6226)",
            ["channel", "L1 miss rate", "paper", "leak Kbps", "accuracy", "recovered"],
            rows,
        )
    )
    return results


def test_table7_spectre():
    results = run_and_report("table7_spectre", experiment)
    rates = {name: report.l1_miss_rate for name, report in results.items()}
    # Headline: the frontend channel has the lowest L1 miss rate.
    frontend = rates["frontend-dsb"]
    assert all(
        frontend < rate for name, rate in rates.items() if name != "frontend-dsb"
    )
    # The L1I channels sit well below the data-cache channels.
    for stealthy in ("l1i-flush-reload", "l1i-prime-probe", "frontend-dsb"):
        for noisy in ("mem-flush-reload", "l1d-flush-reload", "l1d-lru"):
            assert rates[stealthy] < rates[noisy] / 2, (stealthy, noisy)
    # Every channel actually recovers the secret.
    for name, report in results.items():
        assert report.accuracy > 0.85, name
    # The frontend attack's rate is in the sub-percent regime the paper
    # reports (0.21%).
    assert frontend < 0.01
    # Section VIII: the frontend Spectre variant trades bandwidth for
    # stealth — slower than the data-cache channels.
    assert (
        results["frontend-dsb"].leak_kbps
        < results["mem-flush-reload"].leak_kbps
    )
    assert (
        results["frontend-dsb"].leak_kbps
        < results["l1d-flush-reload"].leak_kbps
    )
