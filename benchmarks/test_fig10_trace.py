"""Figure 10 — example trace of alternating 0s/1s over the MT
eviction-based channel (d=6) with the calibrated decision threshold."""

from __future__ import annotations

from _harness import run_and_report

from repro.analysis.bits import alternating_bits
from repro.channels.eviction import MtEvictionChannel
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226

TRACE_BITS = 40


def experiment() -> dict:
    machine = Machine(GOLD_6226, seed=1010)
    channel = MtEvictionChannel(machine)
    channel.calibrate()
    samples = [channel.send_bit(bit) for bit in alternating_bits(TRACE_BITS)]
    threshold = channel.decoder.threshold
    print(
        f"Figure 10: MT eviction-based channel trace on Gold 6226 "
        f"(d=6, threshold = {threshold:.0f} cycles)"
    )
    print(f"{'bit#':>5} {'sent':>5} {'measured':>10} {'decoded':>8}")
    for index, sample in enumerate(samples):
        decoded = channel.decoder.decide(sample.measurement)
        marker = "" if decoded == sample.sent else "   <-- error"
        print(
            f"{index:>5} {sample.sent:>5} {sample.measurement:>10.0f} "
            f"{decoded:>8}{marker}"
        )
    return {"samples": samples, "decoder": channel.decoder}


def test_fig10_trace():
    results = run_and_report("fig10_trace", experiment)
    samples, decoder = results["samples"], results["decoder"]
    ones = [s.measurement for s in samples if s.sent == 1]
    zeros = [s.measurement for s in samples if s.sent == 0]
    # The trace shows two separated bands around the threshold.
    import numpy as np

    assert np.median(ones) > decoder.threshold > np.median(zeros)
    decoded = [decoder.decide(s.measurement) for s in samples]
    errors = sum(d != s.sent for d, s in zip(decoded, samples))
    assert errors / len(samples) < 0.35  # most bits land on the right side
