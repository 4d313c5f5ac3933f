"""Figure 3 — per-path delivered uops for 40 / 400 / 4000-uop loops.

The paper's validation experiment: loops of {40, 400, 4000} mov uops run
20M times (so 800M / 8,000M / 80,000M uops total).  Performance counters
show which path serviced the uops: small loops stream from the LSD (when
present), medium loops fit the DSB, and large loops overflow into
MITE+DSB.  On the LSD-disabled E-2174G the 40-uop loop runs from the DSB
instead.
"""

from __future__ import annotations

from _harness import format_table, run_and_report

from repro.isa.blocks import filler_block
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226, XEON_E2174G

ITERATIONS = 20_000_000
LOOP_UOPS = (40, 400, 4000)


def run_loop_size(spec, uops: int) -> dict[str, float]:
    machine = Machine(spec, seed=300 + uops)
    block = filler_block(0x400000, uops, label=f"filler{uops}")
    report = machine.run_loop(LoopProgram([block], ITERATIONS))
    return {
        "lsd": report.uops_lsd,
        "dsb": report.uops_dsb,
        "mite": report.uops_mite,
        "total": report.total_uops,
    }


def experiment() -> dict:
    results: dict[str, dict[int, dict[str, float]]] = {}
    for spec in (GOLD_6226, XEON_E2174G):
        per_size = {uops: run_loop_size(spec, uops) for uops in LOOP_UOPS}
        results[spec.name] = per_size
        rows = [
            (
                uops,
                f"{counts['lsd']:.3e}",
                f"{counts['dsb']:.3e}",
                f"{counts['mite']:.3e}",
            )
            for uops, counts in per_size.items()
        ]
        print(
            format_table(
                f"Figure 3 on {spec.name} "
                f"(LSD {'enabled' if spec.lsd_enabled else 'disabled'}): "
                "uops delivered per path over 20M iterations",
                ["loop uops", "LSD.UOPS", "IDQ.DSB_UOPS", "IDQ.MITE_UOPS"],
                rows,
            )
        )
        print()
    return results


def test_fig03_path_counters():
    results = run_and_report("fig03_path_counters", experiment)

    gold = results["Gold 6226"]
    # 40-uop loop: LSD services (almost) everything on the LSD machine.
    assert gold[40]["lsd"] > 0.95 * gold[40]["total"]
    # 400-uop loop: too big for the LSD, fits the DSB.
    assert gold[400]["dsb"] > 0.95 * gold[400]["total"]
    assert gold[400]["lsd"] == 0
    # 4000-uop loop: overflows the 1536-uop DSB; MITE takes a large share.
    assert gold[4000]["mite"] > 0.3 * gold[4000]["total"]
    assert gold[4000]["mite"] + gold[4000]["dsb"] > 0.95 * gold[4000]["total"]

    coffee = results["Xeon E-2174G"]
    # LSD disabled: the 40-uop loop runs from the DSB instead.
    assert coffee[40]["lsd"] == 0
    assert coffee[40]["dsb"] > 0.95 * coffee[40]["total"]
    # DSB vs MITE split still distinguishes 400 from 4000 uops.
    assert coffee[4000]["mite"] > 10 * coffee[400]["mite"]
