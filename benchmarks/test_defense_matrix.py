"""Extension — the mitigation/attack matrix (DESIGN.md Section 5 follow-up).

The paper's conclusion calls for the whole frontend to be considered in
security designs.  This benchmark evaluates four candidate mitigations
against the channel suite plus a set-selective cross-thread side channel
and a benign-workload cost model, producing the kind of defense matrix a
mitigation proposal would need.

Key findings (asserted below):

* disabling SMT blocks the MT channels and nothing else;
* disabling the LSD (the shipped microcode route) blocks *no* channel —
  it removes the fingerprint signal at an energy cost;
* per-thread DSB isolation eliminates set-selective cross-thread leakage
  at zero performance cost, but cooperative activity channels survive;
* uniform path timing collapses path-timing channels and the set leak,
  at >2x benign slowdown — and *work-volume* channels (fast variants,
  misalignment encode work) still survive, showing path equalisation
  alone is not a complete defense.
"""

from __future__ import annotations

from _harness import format_table, run_and_report

from repro.defense.evaluation import DefenseEvaluator
from repro.defense.mitigations import ALL_MITIGATIONS


def experiment() -> dict:
    evaluator = DefenseEvaluator(message_bits=32)
    reports = {
        report.mitigation_name: report
        for report in evaluator.evaluate_all(ALL_MITIGATIONS)
    }
    rows = []
    for name, report in reports.items():
        status = {o.channel_name: o.status for o in report.outcomes}
        rows.append(
            (
                name,
                status["non-mt-eviction"],
                status["mt-eviction"],
                status["mt-misalignment"],
                f"{report.set_leak_accuracy * 100:.0f}%",
                f"x{report.benign_slowdown:.2f}",
                f"x{report.benign_energy_ratio:.2f}",
            )
        )
    print(
        format_table(
            "Defense matrix on Gold 6226 (set-leak chance level = 6%)",
            [
                "mitigation",
                "non-MT evict",
                "MT evict",
                "MT misalign",
                "set leak",
                "slowdown",
                "energy",
            ],
            rows,
        )
    )
    return reports


def test_defense_matrix():
    reports = run_and_report("defense_matrix", experiment)
    baseline = reports["baseline"]
    assert baseline.set_leak_accuracy > 0.9
    assert all(o.status == "intact" for o in baseline.outcomes)

    smt_off = reports["disable-smt"]
    assert set(smt_off.blocked_channels) == {"mt-eviction", "mt-misalignment"}

    lsd_off = reports["disable-lsd"]
    assert not lsd_off.blocked_channels  # blocks nothing
    assert lsd_off.benign_energy_ratio > 1.1  # the LSD's power saving

    isolated = reports["isolate-dsb"]
    assert isolated.set_leak_accuracy <= 2 / 16
    assert isolated.benign_slowdown < 1.05
    assert "mt-eviction" in isolated.surviving_channels  # residual

    uniform = reports["uniform-path-timing"]
    assert uniform.set_leak_accuracy <= 2 / 16
    assert uniform.benign_slowdown > 2.0
    # Work-volume channels survive path equalisation.
    status = {o.channel_name: o.status for o in uniform.outcomes}
    assert status["non-mt-misalignment"] == "intact"
