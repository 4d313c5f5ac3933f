"""Extension — detecting frontend attacks from performance counters.

The frontend channels' selling point is cache invisibility (Table VII).
This benchmark asks the defender's question: are they *counter*-invisible
too?  An envelope detector is trained on five diverse benign workloads
(numeric kernel, medium loop, interpreter dispatch, LCP-heavy media code,
branchy code) and then shown held-out benign runs and the full attack
suite.

Result (asserted): the eviction-based and slow-switch attacks are
flagged — sustained DSB-eviction / LSD-flush / switch rates far above
any benign envelope — with zero false positives on the hold-outs.  The
**misalignment channel evades**: by construction it causes no evictions,
no MITE redelivery, and no cross-path switches in its own thread, so the
counters the envelope watches stay silent.  Eviction channels are
cache-stealthy but not counter-stealthy; the misalignment channel is
both, which sharpens the paper's closing argument that the frontend
needs first-class consideration in hardware security designs.
"""

from __future__ import annotations

from _harness import format_table, run_and_report

from repro.analysis.bits import alternating_bits
from repro.channels.base import ChannelConfig
from repro.channels.eviction import MtEvictionChannel, NonMtEvictionChannel
from repro.channels.misalignment import NonMtMisalignmentChannel
from repro.channels.slow_switch import SlowSwitchChannel
from repro.defense.detector import FrontendAnomalyDetector
from repro.frontend.engine import LoopReport
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.workloads import WorkloadLibrary


def counters_as_report(machine: Machine) -> LoopReport:
    perf = machine.perf
    return LoopReport(
        cycles=perf.read("cycles"),
        uops_dsb=int(perf.read("idq.dsb_uops")),
        uops_mite=int(perf.read("idq.mite_uops")),
        uops_lsd=int(perf.read("lsd.uops")),
        switches_to_mite=int(perf.read("dsb2mite_switches.count")),
        lcp_stalls=int(perf.read("ild_stall.lcp")),
        dsb_evictions=int(perf.read("idq.dsb_evictions")),
        lsd_flushes=int(perf.read("lsd.flushes")),
    )


def run_attack(name: str) -> LoopReport:
    machine = Machine(GOLD_6226, seed=2525)
    machine.perf.reset()
    if name == "non-mt-eviction":
        channel = NonMtEvictionChannel(machine, variant="stealthy")
    elif name == "non-mt-misalignment":
        channel = NonMtMisalignmentChannel(
            machine, ChannelConfig(d=5, M=8), variant="stealthy"
        )
    elif name == "slow-switch":
        channel = SlowSwitchChannel(machine)
    else:
        channel = MtEvictionChannel(machine)
    channel.transmit(alternating_bits(32))
    return counters_as_report(machine)


def experiment() -> dict:
    detector = FrontendAnomalyDetector(margin=3.0)
    train_machine = Machine(GOLD_6226, seed=2424)
    train_library = WorkloadLibrary(train_machine.rngs.stream("train"))
    for spec in train_library.all_workloads():
        detector.observe_benign(train_machine.run_loop(spec.program))

    rows = []
    verdicts: dict[str, bool] = {}
    # Held-out benign runs (fresh machine + different stream).
    holdout_machine = Machine(GOLD_6226, seed=2626)
    holdout_library = WorkloadLibrary(holdout_machine.rngs.stream("holdout"))
    for spec in holdout_library.all_workloads():
        verdict = detector.classify(holdout_machine.run_loop(spec.program))
        verdicts[f"benign/{spec.name}"] = verdict.suspicious
        rows.append(
            (f"benign/{spec.name}", str(verdict.suspicious), f"{verdict.score:.1f}",
             ", ".join(verdict.exceeded) or "-")
        )
    for attack in (
        "non-mt-eviction",
        "non-mt-misalignment",
        "slow-switch",
        "mt-eviction",
    ):
        verdict = detector.classify(run_attack(attack))
        verdicts[f"attack/{attack}"] = verdict.suspicious
        rows.append(
            (f"attack/{attack}", str(verdict.suspicious), f"{verdict.score:.1f}",
             ", ".join(verdict.exceeded) or "-")
        )
    print(
        format_table(
            "Frontend anomaly detection (envelope margin 3x over 5 benign "
            "workload classes)",
            ["execution", "flagged", "score", "exceeded rates"],
            rows,
        )
    )
    return verdicts


def test_detection_rates():
    verdicts = run_and_report("detection_rates", experiment)
    # Zero false positives on the benign hold-outs.
    for name, suspicious in verdicts.items():
        if name.startswith("benign/"):
            assert not suspicious, name
    # The eviction-driven and switch-driven attacks cannot hide.
    assert verdicts["attack/non-mt-eviction"]
    assert verdicts["attack/mt-eviction"]
    assert verdicts["attack/slow-switch"]
    # The misalignment channel's defining property: it evades counter-
    # based detection (no evictions, no MITE, no switches to count).
    assert not verdicts["attack/non-mt-misalignment"]
