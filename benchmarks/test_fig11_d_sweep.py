"""Figure 11 — influence of the receiver way count ``d`` on the MT
eviction-based attack.

The paper sweeps d = 1..8: small d gives tiny timing differences (the
receiver redelivers few blocks) and therefore unreliable decoding, while
larger d strengthens the signal; the paper picks d = 6 as the balance.

The grid runs through :class:`~repro.sweep.ParameterSweep` and the
executor layer: set ``REPRO_SWEEP_JOBS`` / ``REPRO_SWEEP_CACHE_DIR`` to
fan the points across processes or reuse cached metrics — the table is
identical either way.
"""

from __future__ import annotations

from _harness import format_table, run_and_report, run_sweep

from repro.analysis.bits import alternating_bits
from repro.channels.base import ChannelConfig
from repro.channels.eviction import MtEvictionChannel
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.sweep import ParameterSweep, SweepPoint

MESSAGE_BITS = 48
BASE_SEED = 1100


def run_point(point: SweepPoint) -> dict:
    machine = Machine(GOLD_6226, seed=point.seed)
    channel = MtEvictionChannel(
        machine, ChannelConfig(d=point["d"], p=1000, q=100)
    )
    result = channel.transmit(alternating_bits(MESSAGE_BITS))
    return {
        "kbps": result.kbps,
        "error": result.error_rate,
        "margin": channel.decoder.margin,
    }


def experiment() -> dict[int, tuple[float, float, float]]:
    sweep = ParameterSweep(
        run_point, grid={"d": list(range(1, 9))}, base_seed=BASE_SEED
    )
    table = run_sweep(sweep)
    results = {
        row["d"]: (row["kbps_mean"], row["error_mean"], row["margin_mean"])
        for row in table.rows()
    }
    rows = [
        (d, f"{kbps:.2f}", f"{err * 100:.2f}%", f"{margin:.0f}")
        for d, (kbps, err, margin) in results.items()
    ]
    print(
        format_table(
            "Figure 11: MT eviction-based attack vs receiver way count d "
            "(Gold 6226, alternating message)",
            ["d", "rate (Kbps)", "error rate", "margin (cycles)"],
            rows,
        )
    )
    return results


def test_fig11_d_sweep():
    results = run_and_report("fig11_d_sweep", experiment)
    margins = {d: margin for d, (_, _, margin) in results.items()}
    errors = {d: err for d, (_, err, _) in results.items()}
    # Small d => small timing difference (paper: d=1,2 unreliable).
    assert margins[1] < margins[6]
    assert margins[2] < margins[6]
    # The paper's chosen operating point d=6 decodes reliably.
    assert errors[6] < 0.25
    # Every d still yields a usable channel (errors are not 50/50 noise).
    assert all(err < 0.45 for err in errors.values())
