"""Figure 6 — ordered- vs mixed-issue LCP instruction blocks.

Two 32-instruction loops with identical instruction content (16 plain
``add`` + 16 LCP-prefixed ``add``) but different arrangement, run 800M
iterations' worth.  The counters show similar MITE/DSB uop splits for
both, yet the mixed arrangement's extra DSB-to-MITE switches produce a
clearly lower IPC — the slow-switch channel's signal.
"""

from __future__ import annotations

from _harness import format_table, run_and_report

from repro.isa.blocks import lcp_block
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226

ITERATIONS = 800_000_000 // 32  # 800M instructions, 32 per loop iteration


def run_arrangement(mixed: bool) -> dict[str, float]:
    machine = Machine(GOLD_6226, seed=600 + int(mixed))
    block = lcp_block(0x400000, lcp_sets=16, mixed=mixed)
    report = machine.run_loop(LoopProgram([block], ITERATIONS))
    return {
        "mite_uops": report.uops_mite,
        "dsb_uops": report.uops_dsb,
        "switches": report.switches_to_mite,
        "lcp_stalls": report.lcp_stalls,
        "cycles": report.cycles,
        "ipc": report.ipc,
    }


def experiment() -> dict:
    mixed = run_arrangement(mixed=True)
    ordered = run_arrangement(mixed=False)
    rows = [
        (
            name,
            f"{stats['mite_uops']:.2e}",
            f"{stats['dsb_uops']:.2e}",
            f"{stats['switches']:.2e}",
            f"{stats['lcp_stalls']:.2e}",
            f"{stats['ipc']:.3f}",
        )
        for name, stats in (("mixed-issue", mixed), ("ordered-issue", ordered))
    ]
    print(
        format_table(
            "Figure 6 on Gold 6226: LCP arrangements over 800M instructions",
            ["arrangement", "MITE uops", "DSB uops", "DSB->MITE", "LCP stalls", "IPC"],
            rows,
        )
    )
    return {"mixed": mixed, "ordered": ordered}


def test_fig06_lcp_issue():
    results = run_and_report("fig06_lcp_issue", experiment)
    mixed, ordered = results["mixed"], results["ordered"]
    # Similar per-path uop totals (paper: "similar number of micro-ops
    # from MITE and DSB")...
    assert mixed["mite_uops"] == ordered["mite_uops"]
    assert abs(mixed["dsb_uops"] - ordered["dsb_uops"]) < 0.05 * ordered["dsb_uops"]
    assert mixed["lcp_stalls"] == ordered["lcp_stalls"]
    # ...but the mixed arrangement pays an order of magnitude more path
    # switches and loses measurable IPC.
    assert mixed["switches"] > 5 * ordered["switches"]
    assert mixed["ipc"] < 0.8 * ordered["ipc"]
