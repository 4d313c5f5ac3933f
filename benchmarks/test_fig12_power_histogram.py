"""Figure 12 — RAPL power histogram of the three frontend paths.

Energy of path-pinned probe loops, measured through the quantised, noisy
RAPL model on the Gold 6226.  MITE delivery is clearly the most
expensive; the LSD/DSB difference is smaller (and is what the power
misalignment channel and the fingerprint's power verdict lean on).
"""

from __future__ import annotations

from _harness import run_and_report

from repro.analysis.stats import separation, summarize, trimmed
from repro.channels.probes import PathProbe, path_power_samples
from repro.frontend.paths import DeliveryPath
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.measure.histogram import Histogram


def experiment() -> dict:
    machine = Machine(GOLD_6226, seed=1212)
    samples = path_power_samples(machine, samples=150, iterations=50_000)
    # Normalise to energy-per-uop so loop-size differences do not skew
    # the comparison (the probes execute different uop counts).
    uops = {
        DeliveryPath.LSD: 40,
        DeliveryPath.DSB: 70,
        DeliveryPath.MITE: 45,
    }
    normalised = {
        path: trimmed([value / (uops[path] * 50_000) for value in obs])
        for path, obs in samples.items()
    }
    lo = min(min(obs) for obs in normalised.values())
    hi = max(max(obs) for obs in normalised.values())
    for path in (DeliveryPath.LSD, DeliveryPath.DSB, DeliveryPath.MITE):
        hist = Histogram(lo=lo * 0.98, hi=hi * 1.02, bins=25)
        hist.add_many(normalised[path])
        label = "MITE+DSB" if path is DeliveryPath.MITE else str(path)
        print(hist.render(width=40, label=f"{label} path (nJ per uop, RAPL)"))
        print(f"  summary: {summarize(normalised[path])}")
        print()
    return normalised


def test_fig12_power_histogram():
    normalised = run_and_report("fig12_power_histogram", experiment)
    lsd = summarize(normalised[DeliveryPath.LSD]).mean
    dsb = summarize(normalised[DeliveryPath.DSB]).mean
    mite = summarize(normalised[DeliveryPath.MITE]).mean
    # MITE delivery costs clearly more energy per uop than DSB/LSD.
    assert mite > 1.3 * dsb
    assert mite > 1.3 * lsd
    # The MITE mode is separable through RAPL noise (Figure 12).
    assert separation(normalised[DeliveryPath.DSB], normalised[DeliveryPath.MITE]) > 1.5
    # The model's core energy per uop orders LSD < DSB < MITE+DSB.  RAPL
    # adds package baseline energy per cycle, and the LSD probe spends
    # more cycles per uop than the DSB probe, which hides the LSD/DSB gap
    # in the sampled means above.
    machine = Machine(GOLD_6226)
    model = {}
    for path, probe in PathProbe.all_probes(machine, 50_000).items():
        report = machine.run_loop(probe.program)
        model[path] = report.energy_nj / report.total_uops
    assert model[DeliveryPath.LSD] < model[DeliveryPath.DSB] < model[DeliveryPath.MITE]
