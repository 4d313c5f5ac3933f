"""Figure 4 — timing histogram of the LSD / DSB / MITE+DSB paths.

Times path-pinned probe loops on the Gold 6226 through the noisy cycle
timer and renders the three distributions.  The collision-based attacks
use the (large) DSB-vs-MITE+DSB gap; the misalignment-based attacks use
the (small) LSD-vs-DSB gap.
"""

from __future__ import annotations

from _harness import run_and_report

from repro.analysis.stats import separation, summarize, trimmed
from repro.channels.probes import PathProbe, path_timing_samples
from repro.frontend.paths import DeliveryPath
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.measure.histogram import Histogram

ITERATIONS = 10


def experiment() -> dict:
    machine = Machine(GOLD_6226, seed=42)
    samples = path_timing_samples(machine, samples=400, iterations=ITERATIONS)
    cleaned = {path: trimmed(obs) for path, obs in samples.items()}
    lo = min(min(obs) for obs in cleaned.values())
    hi = max(max(obs) for obs in cleaned.values())
    for path in (DeliveryPath.LSD, DeliveryPath.DSB, DeliveryPath.MITE):
        hist = Histogram(lo=lo * 0.98, hi=hi * 1.02, bins=30)
        hist.add_many(cleaned[path])
        label = "MITE+DSB" if path is DeliveryPath.MITE else str(path)
        print(hist.render(width=40, label=f"{label} path (cycles per probe loop)"))
        print(f"  summary: {summarize(cleaned[path])}")
        print()
    return cleaned


def test_fig04_timing_histogram():
    cleaned = run_and_report("fig04_timing_histogram", experiment)
    lsd = cleaned[DeliveryPath.LSD]
    dsb = cleaned[DeliveryPath.DSB]
    mite = cleaned[DeliveryPath.MITE]
    # The three modes are separable (Figure 4)...
    assert separation(dsb, mite) > 3.0
    assert separation(lsd, dsb) > 0.8
    # ...with the MITE+DSB gap much larger than the LSD/DSB gap, which is
    # why eviction channels are cleaner than misalignment channels.
    mite_gap = abs(summarize(mite).mean - summarize(dsb).mean)
    lsd_gap = abs(summarize(lsd).mean - summarize(dsb).mean)
    assert mite_gap > 3 * lsd_gap
    # Per uop, the calibrated latency order is DSB < LSD < MITE+DSB (the
    # probes deliver different uop counts per traversal).
    probes = PathProbe.all_probes(Machine(GOLD_6226), ITERATIONS)
    per_uop = {
        path: summarize(cleaned[path]).mean / probe.program.total_uops
        for path, probe in probes.items()
    }
    assert per_uop[DeliveryPath.DSB] < per_uop[DeliveryPath.LSD] < per_uop[DeliveryPath.MITE]
