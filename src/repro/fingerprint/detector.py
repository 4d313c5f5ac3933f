"""LSD fingerprinting probe (Section IX, Figure 13).

The probe times (and power-profiles) two loops:

* **small** — a chain of mix blocks whose uop count fits the LSD
  (delivered by the LSD when one exists);
* **large** — a chain exceeding the 64-uop LSD capacity (always
  delivered by the DSB, with MITE for cold fills).

The discriminating statistic is the ratio of *per-uop* cost between the
small and the large loop: with the LSD enabled the small loop runs on a
different path and the ratio departs from 1; with it disabled both loops
run from the DSB and the ratio sits near 1.  The same comparison works on
RAPL energy; the paper observes (and this model reproduces) that timing
is the more reliable indicator because RAPL readings are noisy and
quantised.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MeasurementError
from repro.fingerprint.patches import MicrocodePatch
from repro.isa.blocks import DSB_SETS
from repro.isa.program import LoopProgram
from repro.machine import LSD_CAPACITY
from repro.machine.machine import Machine

__all__ = ["LsdFingerprint", "FingerprintReading", "FingerprintResult"]


@dataclass(frozen=True)
class FingerprintReading:
    """Raw probe measurements on one machine state (Figure 13's bars)."""

    small_cycles: float
    large_cycles: float
    small_energy: float
    large_energy: float
    small_uops: int
    large_uops: int

    @property
    def timing_ratio(self) -> float:
        """Per-uop time of the small loop over the large loop."""
        return (self.small_cycles / self.small_uops) / (
            self.large_cycles / self.large_uops
        )

    #: Uop-count ratio used to normalise the power reading (the power
    #: probes run with their own iteration count, but the small/large
    #: uop proportion is identical).
    @property
    def power_ratio(self) -> float:
        """Per-uop energy of the small loop over the large loop."""
        small_uops_per_iter = self.small_uops
        large_uops_per_iter = self.large_uops
        return (self.small_energy / small_uops_per_iter) / (
            self.large_energy / large_uops_per_iter
        )


@dataclass(frozen=True)
class FingerprintResult:
    """Classification outcome."""

    lsd_enabled: bool
    reading: FingerprintReading
    timing_verdict: bool
    power_verdict: bool

    def matching_patch(
        self, candidates: tuple[MicrocodePatch, ...]
    ) -> MicrocodePatch:
        """Pick the candidate patch consistent with the detected LSD state."""
        for patch in candidates:
            if patch.lsd_enabled == self.lsd_enabled:
                return patch
        raise MeasurementError("no candidate patch matches the detected LSD state")


class LsdFingerprint:
    """Times/power-profiles LSD-sized vs over-sized loops to detect the LSD.

    Parameters
    ----------
    timing_threshold:
        Per-uop small/large timing-ratio above which the LSD is judged
        enabled.  With the calibrated model: LSD-on gives ~1.25, LSD-off
        ~1.04, so 1.12 splits them with margin.
    power_threshold:
        Same for per-uop RAPL energy ratio.  Although LSD delivery is
        cheaper in *core* energy, RAPL readings are dominated by package
        baseline power times duration, so the measured per-uop energy of
        the (slower-per-uop) LSD-delivered small loop is *higher*: the
        verdict triggers above the threshold, in the same direction as
        timing but with a smaller margin (~1.13 vs ~1.05) — which is
        exactly why the paper calls timing the more reliable indicator.
    """

    def __init__(
        self,
        iterations: int = 2000,
        power_iterations: int = 300_000,
        samples: int = 30,
        power_samples: int = 8,
        target_set: int = 3,
        timing_threshold: float = 1.12,
        power_threshold: float = 1.06,
    ) -> None:
        if min(iterations, power_iterations, samples, power_samples) < 1:
            raise MeasurementError("iterations and samples must be >= 1")
        self.iterations = iterations
        # Power probes must span many RAPL update intervals (the counter
        # refreshes at ~20 kHz) or quantisation noise swamps the signal —
        # the same constraint that forces the paper's power channels to
        # p = q = 240,000 iterations per bit.
        self.power_iterations = power_iterations
        self.samples = samples
        self.power_samples = power_samples
        self.target_set = target_set
        self.timing_threshold = timing_threshold
        self.power_threshold = power_threshold

    def _programs(self, machine: Machine) -> tuple[LoopProgram, LoopProgram]:
        layout = machine.layout()
        # Small: fits LSD and one DSB set (8 blocks x 5 uops = 40 <= 64).
        small = LoopProgram(
            layout.chain(self.target_set, 8, label="fp.small"),
            self.iterations,
            "fingerprint-small",
        )
        # Large: exceeds LSD capacity but not DSB capacity (two sets).
        other = (self.target_set + 13) % DSB_SETS
        large_blocks = layout.chain(self.target_set, 7, first_slot=20, label="fp.l1")
        large_blocks += layout.chain(other, 7, first_slot=40, label="fp.l2")
        large = LoopProgram(large_blocks, self.iterations, "fingerprint-large")
        if small.uops_per_iteration > LSD_CAPACITY:
            raise MeasurementError("small probe no longer fits the LSD")
        if large.uops_per_iteration <= LSD_CAPACITY:
            raise MeasurementError("large probe must exceed the LSD capacity")
        return small, large

    def read(self, machine: Machine) -> FingerprintReading:
        """Average timing and energy of both probes over many samples."""
        small, large = self._programs(machine)
        totals = {"sc": 0.0, "lc": 0.0, "se": 0.0, "le": 0.0}
        for _ in range(self.samples):
            report_small = machine.run_loop(small)
            totals["sc"] += machine.timer.measure(report_small.cycles).measured_cycles
            report_large = machine.run_loop(large)
            totals["lc"] += machine.timer.measure(report_large.cycles).measured_cycles
        power_small = small.with_iterations(self.power_iterations)
        power_large = large.with_iterations(self.power_iterations)
        for _ in range(self.power_samples):
            report_small = machine.run_loop(power_small)
            totals["se"] += machine.rapl.measure_region(
                report_small.energy_nj, report_small.cycles
            ).measured_energy_nj
            report_large = machine.run_loop(power_large)
            totals["le"] += machine.rapl.measure_region(
                report_large.energy_nj, report_large.cycles
            ).measured_energy_nj
        return FingerprintReading(
            small_cycles=totals["sc"] / self.samples,
            large_cycles=totals["lc"] / self.samples,
            small_energy=totals["se"] / self.power_samples,
            large_energy=totals["le"] / self.power_samples,
            small_uops=small.uops_per_iteration * small.iterations,
            large_uops=large.uops_per_iteration * large.iterations,
        )

    def detect(self, machine: Machine) -> FingerprintResult:
        """Classify the machine's LSD state from probe measurements.

        The timing verdict decides (the paper found timing more
        reliable); the power verdict is reported alongside.
        """
        reading = self.read(machine)
        timing_verdict = reading.timing_ratio > self.timing_threshold
        power_verdict = reading.power_ratio > self.power_threshold
        return FingerprintResult(
            lsd_enabled=timing_verdict,
            reading=reading,
            timing_verdict=timing_verdict,
            power_verdict=power_verdict,
        )
