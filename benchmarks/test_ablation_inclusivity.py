"""Ablation — DSB >= LSD inclusivity (DESIGN.md Section 5).

On LSD machines, the eviction channel's m=1 signal is the transition
from LSD streaming to DSB+MITE delivery, which requires DSB evictions to
*flush* the LSD (inclusive hierarchy, Section III-B).  With inclusivity
ablated, a streaming loop keeps streaming even while its lines are
evicted underneath it, and the m=0/m=1 margin collapses for the
LSD-resident part of the signal.

The two hierarchy policies run as a 1-D :class:`ParameterSweep` through
:func:`run_sweep`.
"""

from __future__ import annotations

from _harness import format_table, run_and_report, run_sweep

from repro.channels.base import ChannelConfig
from repro.channels.eviction import MtEvictionChannel
from repro.frontend.params import FrontendParams
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.measure.noise import QUIET_PROFILE
from repro.sweep import ParameterSweep, SweepPoint

HIERARCHIES = ("inclusive", "ablated")

#: Fixed ablation seed; ``point.seed`` is deliberately unused.
ABLATION_SEED = 909


def inclusivity_metrics(point: SweepPoint) -> dict:
    params = FrontendParams(lsd_inclusive=point["hierarchy"] == "inclusive")
    machine = Machine(
        GOLD_6226,
        seed=ABLATION_SEED,
        params=params,
        timing_noise=QUIET_PROFILE,
        smt_timing_noise=QUIET_PROFILE,
    )
    channel = MtEvictionChannel(
        machine,
        ChannelConfig(p=1000, q=100, disturb_rate=0.0, sync_fail_rate=0.0),
    )
    channel.calibrate(8)
    return {"margin": channel.decoder.margin}


def experiment() -> dict:
    table = run_sweep(
        ParameterSweep(inclusivity_metrics, {"hierarchy": HIERARCHIES})
    )
    results = {row["hierarchy"]: row["margin_mean"] for row in table.rows()}
    rows = [
        ("inclusive (real hardware)", f"{results['inclusive']:.0f}"),
        ("non-inclusive (ablation)", f"{results['ablated']:.0f}"),
    ]
    print(
        format_table(
            "Ablation: MT eviction channel margin on Gold 6226 (cycles)",
            ["DSB/LSD hierarchy", "decoder margin"],
            rows,
        )
    )
    return results


def test_ablation_inclusivity():
    results = run_and_report("ablation_inclusivity", experiment)
    # Removing the eviction->flush coupling shrinks the channel's margin:
    # the receiver's loop keeps streaming from the LSD through m=1 bursts.
    assert results["ablated"] < 0.6 * results["inclusive"]
