"""Figure 13 — microcode patch fingerprinting via LSD-capacity probes.

Average timing and RAPL energy of loops below vs above the LSD capacity,
measured under the older patch1 (LSD enabled) and the newer patch2 (LSD
disabled).  The per-uop small/large ratios cleanly separate the two patch
states, with timing the more reliable indicator.
"""

from __future__ import annotations

from _harness import format_table, run_and_report

from repro.fingerprint.detector import LsdFingerprint
from repro.fingerprint.patches import PATCH1, PATCH2, apply_patch
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226


def experiment() -> dict:
    machine = Machine(GOLD_6226, seed=1313)
    fingerprint = LsdFingerprint()
    readings = {}
    rows = []
    for patch in (PATCH1, PATCH2):
        apply_patch(machine, patch)
        result = fingerprint.detect(machine)
        readings[patch.name] = result
        reading = result.reading
        rows.append(
            (
                f"{patch.name} (LSD {'on' if patch.lsd_enabled else 'off'})",
                f"{reading.small_cycles:.0f}",
                f"{reading.large_cycles:.0f}",
                f"{reading.timing_ratio:.3f}",
                f"{reading.power_ratio:.3f}",
                "enabled" if result.lsd_enabled else "disabled",
            )
        )
    print(
        format_table(
            "Figure 13 on Gold 6226: LSD-capacity probe under both microcode patches",
            [
                "patch",
                "small-loop cycles",
                "large-loop cycles",
                "timing ratio",
                "power ratio",
                "detected LSD",
            ],
            rows,
        )
    )
    print()
    print(
        "patch2 mitigates: "
        + ", ".join(PATCH2.mitigated_cves)
        + " — fingerprinting patch1 tells the attacker these are still open."
    )
    return readings


def test_fig13_fingerprint():
    readings = run_and_report("fig13_fingerprint", experiment)
    patch1, patch2 = readings["patch1"], readings["patch2"]
    # Correct classification of both patch states.
    assert patch1.lsd_enabled and patch1.matching_patch((PATCH1, PATCH2)) is PATCH1
    assert not patch2.lsd_enabled and patch2.matching_patch((PATCH1, PATCH2)) is PATCH2
    # Timing separates the states more than power (paper's remark).
    timing_gap = patch1.reading.timing_ratio - patch2.reading.timing_ratio
    power_gap = patch1.reading.power_ratio - patch2.reading.power_ratio
    assert timing_gap > power_gap > 0
