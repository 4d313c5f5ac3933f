"""Path-pinned probe loops and sampling helpers.

The histogram figures (4 and 12) and the fingerprinting attack (Section
IX) need code sequences that reliably exercise one frontend path:

* **LSD probe** — 8 aligned blocks mapping to one DSB set: 40 uops fit
  the 64-uop LSD and the 8 DSB ways (Figure 5);
* **DSB probe** — 14 aligned blocks split over two DSB sets: 70 uops
  exceed the LSD but occupy only 7 ways per set, so delivery settles in
  the DSB with no evictions;
* **MITE+DSB probe** — 9 blocks mapping to one DSB set: one more than
  the ways, so the set thrashes and micro-ops keep falling back to MITE.

On machines whose LSD is disabled the LSD probe executes from the DSB
instead — exactly the effect the microcode fingerprint detects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ChannelError
from repro.frontend.paths import DeliveryPath
from repro.isa.blocks import DSB_SETS, DSB_WAYS
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine

__all__ = ["PathProbe", "path_timing_samples", "path_power_samples"]


@dataclass(frozen=True)
class PathProbe:
    """A loop program expected to exercise one frontend path."""

    path: DeliveryPath
    program: LoopProgram

    @classmethod
    def lsd(cls, machine: Machine, iterations: int = 10, target_set: int = 3) -> "PathProbe":
        layout = machine.layout()
        blocks = layout.chain(target_set, 8, label="probe.lsd")
        return cls(DeliveryPath.LSD, LoopProgram(blocks, iterations, "lsd-probe"))

    @classmethod
    def dsb(cls, machine: Machine, iterations: int = 10, target_set: int = 3) -> "PathProbe":
        layout = machine.layout()
        other = (target_set + 11) % DSB_SETS
        blocks = layout.chain(target_set, 7, label="probe.dsb.a") + layout.chain(
            other, 7, first_slot=50, label="probe.dsb.b"
        )
        return cls(DeliveryPath.DSB, LoopProgram(blocks, iterations, "dsb-probe"))

    @classmethod
    def mite(cls, machine: Machine, iterations: int = 10, target_set: int = 3) -> "PathProbe":
        layout = machine.layout()
        blocks = layout.chain(target_set, DSB_WAYS + 1, label="probe.mite")
        return cls(DeliveryPath.MITE, LoopProgram(blocks, iterations, "mite-probe"))

    @classmethod
    def all_probes(cls, machine: Machine, iterations: int = 10) -> dict[DeliveryPath, "PathProbe"]:
        return {
            DeliveryPath.LSD: cls.lsd(machine, iterations),
            DeliveryPath.DSB: cls.dsb(machine, iterations),
            DeliveryPath.MITE: cls.mite(machine, iterations),
        }


def path_timing_samples(
    machine: Machine,
    samples: int = 200,
    iterations: int = 10,
) -> dict[DeliveryPath, list[float]]:
    """Measured timings of each path probe, for Figure 4 histograms.

    Each sample times one full probe loop (``iterations`` traversals)
    through the machine's noisy cycle timer.  State persists between
    samples, so after warmup the probes sit on their steady-state path.
    """
    if samples < 1:
        raise ChannelError(f"samples must be >= 1, got {samples}")
    results: dict[DeliveryPath, list[float]] = {}
    for path, probe in PathProbe.all_probes(machine, iterations).items():
        observations = []
        for _ in range(samples):
            report = machine.run_loop(probe.program)
            observations.append(machine.timer.measure(report.cycles).measured_cycles)
        results[path] = observations
    return results


def path_power_samples(
    machine: Machine,
    samples: int = 200,
    iterations: int = 2000,
) -> dict[DeliveryPath, list[float]]:
    """Measured RAPL energies of each path probe, for Figure 12.

    Power sampling needs long regions (the RAPL counter refreshes at
    ~20 kHz), hence the much larger default iteration count.
    """
    if samples < 1:
        raise ChannelError(f"samples must be >= 1, got {samples}")
    results: dict[DeliveryPath, list[float]] = {}
    for path, probe in PathProbe.all_probes(machine, iterations).items():
        observations = []
        for _ in range(samples):
            report = machine.run_loop(probe.program)
            sample = machine.rapl.measure_region(report.energy_nj, report.cycles)
            observations.append(sample.measured_energy_nj)
        results[path] = observations
    return results
