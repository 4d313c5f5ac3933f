"""Ablation — LSD loop-detection latency (DESIGN.md Section 5 family).

The model locks the LSD onto a loop after ``lsd_detect_iterations``
consecutive all-DSB iterations (default 2).  This sweep shows what the
parameter controls: the steady-state LSD share of a short benign loop is
insensitive (detection is a one-off), but the *channels* that rely on
repeated capture/flush cycles shift — the MT eviction channel's receiver
re-captures after every sender burst, so slower detection keeps it on
the DSB longer and shrinks the LSD-related part of its signal.

The detection-latency axis runs as a :class:`ParameterSweep` through
:func:`run_sweep`; each point reports both observables as metrics.
"""

from __future__ import annotations

from _harness import format_table, run_and_report, run_sweep

from repro.frontend.params import FrontendParams
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.measure.noise import QUIET_PROFILE
from repro.sweep import ParameterSweep, SweepPoint

DETECT_ITERATIONS = (1, 2, 3, 4, 6)

#: Fixed ablation seed; ``point.seed`` is deliberately unused.
ABLATION_SEED = 515


def lsd_share(detect_iterations: int) -> float:
    params = FrontendParams(lsd_detect_iterations=detect_iterations)
    machine = Machine(GOLD_6226, seed=ABLATION_SEED, params=params)
    program = LoopProgram(machine.layout().chain(3, 8), 1000)
    report = machine.run_loop(program)
    return report.uops_lsd / report.total_uops


def receiver_lsd_uops(detect_iterations: int) -> float:
    params = FrontendParams(lsd_detect_iterations=detect_iterations)
    machine = Machine(
        GOLD_6226, seed=ABLATION_SEED, params=params,
        timing_noise=QUIET_PROFILE, smt_timing_noise=QUIET_PROFILE,
    )
    layout = machine.layout()
    result = machine.run_smt(
        LoopProgram(layout.chain(3, 6), 1000),
        LoopProgram(layout.chain(3, 3, first_slot=6), 100),
    )
    return result.primary.uops_lsd


def detect_metrics(point: SweepPoint) -> dict:
    n = point["detect"]
    return {"share": lsd_share(n), "lsd_uops": receiver_lsd_uops(n)}


def experiment() -> dict:
    table = run_sweep(
        ParameterSweep(detect_metrics, {"detect": DETECT_ITERATIONS})
    )
    sweep = {
        row["detect"]: (row["share_mean"], row["lsd_uops_mean"])
        for row in table.rows()
    }
    rows = [
        (n, f"{share:.1%}", f"{lsd_uops:.0f}")
        for n, (share, lsd_uops) in sweep.items()
    ]
    print(
        format_table(
            "Ablation: LSD detection latency (iterations before lock-on)",
            ["detect iters", "benign LSD share (1000-iter loop)",
             "MT receiver LSD uops under attack"],
            rows,
        )
    )
    return sweep


def test_ablation_lsd_detect():
    results = run_and_report("ablation_lsd_detect", experiment)
    # Benign steady-state share barely moves: detection cost is one-off.
    shares = [share for share, _ in results.values()]
    assert max(shares) - min(shares) < 0.01
    # Under the MT attack the receiver re-captures after every burst, so
    # slower detection monotonically starves its LSD usage.
    lsd_uops = [results[n][1] for n in DETECT_ITERATIONS]
    assert all(a >= b for a, b in zip(lsd_uops, lsd_uops[1:]))
    assert lsd_uops[0] > 2 * lsd_uops[-1]
