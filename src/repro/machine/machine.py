"""The top-level :class:`Machine` facade.

Bundles a Table I machine spec with one simulated core and all the
measurement facilities an attacker (or experimenter) uses: the ``rdtscp``
timer (non-MT and SMT noise profiles), the RAPL energy interface, perf
counters, and a layout helper pre-configured for the machine's DSB
geometry.  This is the object every channel, SGX attack, Spectre variant
and fingerprinting probe runs against.
"""

from __future__ import annotations

from repro.frontend.engine import LoopReport
from repro.frontend.params import EnergyParams, FrontendParams
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram
from repro.machine.core import Core
from repro.machine.smt import SmtExecutor, SmtRunResult
from repro.machine.specs import MachineSpec, GOLD_6226
from repro.measure.noise import NONMT_PROFILE, SMT_PROFILE, NoiseProfile
from repro.measure.perf import PerfCounters
from repro.measure.rapl import RaplInterface
from repro.measure.timer import CycleTimer
from repro.rng import RngFactory

__all__ = ["Machine"]


class Machine:
    """A simulated experimental platform for one Table I CPU."""

    def __init__(
        self,
        spec: MachineSpec = GOLD_6226,
        seed: int = 0,
        params: FrontendParams | None = None,
        energy: EnergyParams | None = None,
        timing_noise: NoiseProfile | None = None,
        smt_timing_noise: NoiseProfile | None = None,
    ) -> None:
        self.spec = spec
        self.rngs = RngFactory(seed)
        self.core = Core(spec, params=params, energy=energy)
        self.timer = CycleTimer(
            self.rngs.stream("timer"), timing_noise or NONMT_PROFILE
        )
        self.smt_timer = CycleTimer(
            self.rngs.stream("smt-timer"), smt_timing_noise or SMT_PROFILE
        )
        self.rapl = RaplInterface(
            self.rngs.stream("rapl"),
            frequency_hz=spec.frequency_hz,
            enabled=spec.rapl,
        )
        self.perf = PerfCounters()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_loop(
        self,
        program: LoopProgram,
        thread: int = 0,
        smt_active: bool = False,
        exact: bool = False,
    ) -> LoopReport:
        """Run a loop single-threaded and record its perf events."""
        report = self.core.run_loop(program, thread, smt_active, exact=exact)
        self.perf.record(report)
        return report

    def run_loops(
        self,
        programs: tuple[LoopProgram, ...],
        thread: int = 0,
        smt_active: bool = False,
    ) -> tuple[LoopReport, ...]:
        """Run loops one after another on one thread, as one memoized
        sweep, and record each one's perf events in order."""
        reports = self.core.run_loops(programs, thread, smt_active)
        for report in reports:
            self.perf.record(report)
        return reports

    def run_smt(
        self, primary: LoopProgram, secondary: LoopProgram, exact: bool = False
    ) -> SmtRunResult:
        """Run two loops concurrently on the core's two hardware threads."""
        result = SmtExecutor(self.core).run(primary, secondary, exact=exact)
        self.perf.record(result.primary)
        self.perf.record(result.secondary)
        return result

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def layout(self, region_base: int = 0x400000) -> BlockChainLayout:
        """Chain layout helper matching this machine's DSB geometry."""
        return BlockChainLayout(dsb_sets=self.spec.dsb_sets, region_base=region_base)

    def kbps(self, bits: int, total_cycles: float) -> float:
        """Convert a transmission to kilobits per second on this machine."""
        seconds = self.spec.cycles_to_seconds(total_cycles)
        return bits / seconds / 1e3 if seconds > 0 else 0.0

    def reset(self) -> None:
        """Cold-reset the core's microarchitectural state."""
        self.core.reset()

    @property
    def frontend_params(self) -> FrontendParams:
        return self.core.params

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Machine({self.spec.name}, lsd={'on' if self.core.lsd_enabled else 'off'})"
