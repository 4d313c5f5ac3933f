"""Ablation — SMT set partitioning (DESIGN.md Section 5).

The Figure 2 signature — a thread's sets that are 16 apart colliding
while a sibling runs — exists only because the DSB folds its index space
under SMT.  Disabling the fold (ablation) removes the mod-16 conflicts:
the swept thread at set 17 no longer collides with anything, while the
direct same-set collision at set 1 remains (it needs no fold).

The (policy, swept set) product runs as a 2-D :class:`ParameterSweep`
through :func:`run_sweep`.
"""

from __future__ import annotations

from _harness import format_table, run_and_report, run_sweep

from repro.frontend.params import FrontendParams
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.sweep import ParameterSweep, SweepPoint

FIXED_SET = 1
POLICIES = ("partitioned", "unpartitioned")
SWEPT_SETS = (FIXED_SET, FIXED_SET + 16, 5)

#: Fixed ablation seed; ``point.seed`` is deliberately unused.
ABLATION_SEED = 808


def partitioning_metrics(point: SweepPoint) -> dict:
    params = FrontendParams(smt_partitioning=point["policy"] == "partitioned")
    machine = Machine(GOLD_6226, seed=ABLATION_SEED, params=params)
    layout = machine.layout()
    swept = LoopProgram(layout.chain(point["swept_set"], 8, first_slot=100), 20_000)
    fixed = LoopProgram(layout.chain(FIXED_SET, 8), 20_000)
    return {"mite_uops": machine.run_smt(swept, fixed).primary.uops_mite}


def experiment() -> dict:
    table = run_sweep(
        ParameterSweep(
            partitioning_metrics,
            {"policy": POLICIES, "swept_set": SWEPT_SETS},
        )
    )
    results = {
        (row["policy"], row["swept_set"]): row["mite_uops_mean"]
        for row in table.rows()
    }
    rows = [
        (policy, swept, f"{uops:.2e}")
        for (policy, swept), uops in results.items()
    ]
    print(
        format_table(
            "Ablation: swept-thread MITE uops (fixed sibling at set 1)",
            ["DSB SMT policy", "swept set", "MITE uops"],
            rows,
        )
    )
    return results


def test_ablation_partitioning():
    results = run_and_report("ablation_partitioning", experiment)
    # With partitioning: set 17 folds onto set 1 -> heavy conflicts.
    assert results[("partitioned", 17)] > 50 * max(results[("partitioned", 5)], 1)
    # Ablated: the mod-16 alias disappears; set 17 is as quiet as set 5.
    assert results[("unpartitioned", 17)] < results[("partitioned", 17)] / 20
    # Direct same-set collisions (set 1 vs set 1) survive either policy.
    assert results[("unpartitioned", 1)] > 50 * max(results[("unpartitioned", 5)], 1)
