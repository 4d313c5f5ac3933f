"""Figure 2 — DSB set partitioning under SMT.

Thread 1 loops over 8 blocks fixed at ``addr[9:5] = 1``; thread 0 sweeps
its 8 blocks over every set value 0..31.  With the sender running, the
swept thread's MITE uop counts spike exactly at the two set values that
fold onto the fixed thread's set (1 and 17); without the sender, no set
value conflicts.  The paper ran 20M-iteration loops; the simulator's
steady-state extrapolation reproduces that scale.
"""

from __future__ import annotations

from _harness import format_table, run_and_report

from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226, XEON_E2174G

ITERATIONS = 20_000_000
FIXED_SET = 1


def sweep(spec, with_sender: bool, blocks_per_chain: int = 8) -> list[float]:
    """MITE uops observed by the swept thread, per swept set value.

    ``blocks_per_chain > 12`` exceeds the 64-uop LSD (the paper's third
    condition: G6226 with LSD enabled but blocks too large to fit it).
    Chains longer than 8 are spread over two adjacent sets so only the
    primary set's way pressure is varied.
    """
    mite_uops = []
    for swept_set in range(32):
        machine = Machine(spec, seed=100 + swept_set)
        layout = machine.layout()
        swept_blocks = layout.chain(swept_set, min(blocks_per_chain, 8),
                                    first_slot=100)
        if blocks_per_chain > 8:
            spill_set = (swept_set + 8) % 32
            swept_blocks += layout.chain(
                spill_set, blocks_per_chain - 8, first_slot=120
            )
        swept = LoopProgram(swept_blocks, ITERATIONS, "swept")
        if with_sender:
            fixed = LoopProgram(layout.chain(FIXED_SET, 8), ITERATIONS, "fixed")
            result = machine.run_smt(swept, fixed)
            mite_uops.append(result.primary.uops_mite)
        else:
            report = machine.run_loop(swept)
            mite_uops.append(report.uops_mite)
    return mite_uops


def experiment() -> dict:
    results = {}
    # The paper shows Xeon E-2174G (LSD disabled) for Figure 2 and notes
    # Gold 6226 (LSD enabled) behaves the same.
    for spec in (XEON_E2174G, GOLD_6226):
        with_sender = sweep(spec, with_sender=True)
        without_sender = sweep(spec, with_sender=False)
        results[spec.name] = (with_sender, without_sender)
        rows = [
            (s, f"{with_sender[s]:.2e}", f"{without_sender[s]:.2e}")
            for s in range(32)
        ]
        print(
            format_table(
                f"Figure 2 on {spec.name}: swept-thread MITE uops vs addr[9:5]",
                ["set", "with sender (2a)", "without sender (2b)"],
                rows,
            )
        )
        print()
    return results


def test_fig02_dsb_partitioning():
    results = run_and_report("fig02_dsb_partitioning", experiment)
    for spec_name, (with_sender, without_sender) in results.items():
        conflict = {FIXED_SET, FIXED_SET + 16}
        quiet_max = max(
            uops for s, uops in enumerate(with_sender) if s not in conflict
        )
        # Paper shape: MITE spikes exactly at the two folded-set values...
        for s in conflict:
            assert with_sender[s] > 10 * max(quiet_max, 1), (spec_name, s)
        # ...and a lone thread sees no conflicts anywhere (Figure 2b).
        assert max(without_sender) < min(with_sender[s] for s in conflict) / 10


def test_fig02_lsd_oversized_blocks():
    """The paper's third condition: Gold 6226 with LSD enabled but
    chains exceeding the 64-uop LSD (forcing the DSB even with the LSD
    present) shows the same partitioning collisions."""

    def oversized() -> dict:
        with_sender = sweep(GOLD_6226, with_sender=True, blocks_per_chain=14)
        print(
            "Figure 2 (third condition) on Gold 6226, 14-block chains "
            "(70 uops > LSD):"
        )
        for s in (FIXED_SET, FIXED_SET + 16, 5, 21):
            print(f"  swept set {s:2d}: MITE uops {with_sender[s]:.2e}")
        return {"with_sender": with_sender}

    results = run_and_report("fig02_lsd_oversized", oversized)
    with_sender = results["with_sender"]
    conflict = {FIXED_SET, FIXED_SET + 16}
    quiet = [u for s, u in enumerate(with_sender) if s not in conflict]
    for s in conflict:
        assert with_sender[s] > 5 * max(min(quiet), 1)
