"""Ablation — LCP predecode stall penalty sweep (DESIGN.md Section 5).

The slow-switch channel's margin comes from two effects: LCP predecode
stalls (identical counts in both encodings, so they cancel) and the
DSB-to-MITE switch penalty (32 round trips for mixed-issue vs ~2 for
ordered-issue).  Sweeping the stall penalty from 0 to 3 cycles shows the
margin is switch-dominated; sweeping the switch penalty scales it
directly.

Both penalty axes run as 1-D :class:`ParameterSweep` grids through
:func:`run_sweep` (one per axis — each sweep holds the *other* penalty
at its ablation baseline, which a 2-D product would not).
"""

from __future__ import annotations

from _harness import format_table, run_and_report, run_sweep

from repro.channels.base import ChannelConfig
from repro.channels.slow_switch import SlowSwitchChannel
from repro.frontend.params import FrontendParams
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.measure.noise import QUIET_PROFILE
from repro.sweep import ParameterSweep, SweepPoint

#: Fixed ablation seed; ``point.seed`` is deliberately unused.
ABLATION_SEED = 1001


def margin(lcp_stall: float, switch_penalty: float) -> float:
    params = FrontendParams(
        lcp_stall=lcp_stall, dsb_to_mite_penalty=switch_penalty
    )
    machine = Machine(
        GOLD_6226, seed=ABLATION_SEED, params=params, timing_noise=QUIET_PROFILE
    )
    channel = SlowSwitchChannel(machine, ChannelConfig(r=16, disturb_rate=0.0))
    channel.calibrate(8)
    return channel.decoder.margin


def stall_margin_metrics(point: SweepPoint) -> dict:
    return {"margin": margin(point["lcp_stall"], 4.0)}


def switch_margin_metrics(point: SweepPoint) -> dict:
    return {"margin": margin(3.0, point["dsb_to_mite_penalty"])}


def experiment() -> dict:
    stall_table = run_sweep(
        ParameterSweep(stall_margin_metrics, {"lcp_stall": [0.0, 1.0, 2.0, 3.0]})
    )
    switch_table = run_sweep(
        ParameterSweep(
            switch_margin_metrics, {"dsb_to_mite_penalty": [0.0, 2.0, 4.0, 8.0]}
        )
    )
    stall_sweep = {
        row["lcp_stall"]: row["margin_mean"] for row in stall_table.rows()
    }
    switch_sweep = {
        row["dsb_to_mite_penalty"]: row["margin_mean"]
        for row in switch_table.rows()
    }
    rows = [
        ("lcp_stall", f"{stall:.0f}", f"{value:.0f}")
        for stall, value in stall_sweep.items()
    ] + [
        ("dsb_to_mite_penalty", f"{pen:.0f}", f"{value:.0f}")
        for pen, value in switch_sweep.items()
    ]
    print(
        format_table(
            "Ablation: slow-switch channel margin vs LCP/switch penalties",
            ["parameter", "cycles", "channel margin (cycles)"],
            rows,
        )
    )
    return {"stall": stall_sweep, "switch": switch_sweep}


def test_ablation_lcp_stall():
    results = run_and_report("ablation_lcp_stall", experiment)
    stall, switch = results["stall"], results["switch"]
    # The stall penalty barely moves the margin (both encodings stall
    # identically)...
    assert abs(stall[3.0] - stall[0.0]) < 0.3 * stall[3.0]
    # ...while the switch penalty scales it strongly and monotonically.
    assert switch[8.0] > switch[4.0] > switch[2.0] > switch[0.0] * 1.5 or switch[0.0] < 20
    assert switch[8.0] > 1.8 * switch[2.0]
