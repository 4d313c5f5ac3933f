"""The top-level :class:`Machine` facade.

Bundles a Table I machine spec with one simulated physical core — the
frontend engine (shared DSB and MITE, one LSD per hardware thread) and
the L1I — and all the measurement facilities an attacker (or
experimenter) uses: the ``rdtscp`` timer (non-MT and SMT noise
profiles), the RAPL energy interface, perf counters, and a layout
helper for DSB-set-targeted block chains.  This is the
object every channel, SGX attack, Spectre variant and fingerprinting
probe runs against.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.frontend.engine import FrontendEngine, LoopReport, SmtRunResult
from repro.frontend.params import EnergyParams, FrontendParams
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram
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
        self.params = params or FrontendParams()
        self.energy = energy or EnergyParams()
        self.engine = FrontendEngine(
            params=self.params,
            energy=self.energy,
            n_threads=spec.threads_per_core,
            lsd_enabled=spec.lsd_enabled,
        )
        self.l1i = self.engine.l1i
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
        """Run a loop on one hardware thread and record its perf events."""
        self._check_thread(thread, smt_active)
        report = self.engine.run_loop(program, thread, smt_active, exact=exact)
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
        self._check_thread(thread, smt_active)
        reports = self.engine.run_loops(programs, thread, smt_active)
        for report in reports:
            self.perf.record(report)
        return reports

    def run_smt(
        self, primary: LoopProgram, secondary: LoopProgram, exact: bool = False
    ) -> SmtRunResult:
        """Run two loops concurrently on the core's two hardware threads."""
        self._check_thread(1, smt_active=True)
        result = self.engine.run_smt(primary, secondary, exact=exact)
        self.perf.record(result.primary)
        self.perf.record(result.secondary)
        return result

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def layout(self, region_base: int = 0x400000) -> BlockChainLayout:
        """Chain layout helper for blocks placed from ``region_base``."""
        return BlockChainLayout(region_base=region_base)

    def _check_thread(self, thread: int, smt_active: bool) -> None:
        threads = self.spec.threads_per_core
        if thread >= threads:
            raise ConfigurationError(
                f"{self.spec.name} has {threads} thread(s) per core; "
                f"thread {thread} does not exist"
            )
        if smt_active and not self.spec.smt:
            raise ConfigurationError(f"{self.spec.name} has hyper-threading disabled")

    def reset(self) -> None:
        """Return the core to a cold state (new process / context)."""
        for thread in range(self.spec.threads_per_core):
            self.engine.reset_thread(thread)
        self.l1i.flush_all()

    def set_lsd_enabled(self, enabled: bool) -> None:
        """Toggle the LSD at runtime (microcode patch application).

        The real operation needs a reboot; the model just flips the
        per-thread detectors, flushing any active stream.
        """
        for lsd in self.engine.lsds.values():
            lsd.flush()
            lsd.enabled = enabled

    @property
    def lsd_enabled(self) -> bool:
        return next(iter(self.engine.lsds.values())).enabled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Machine({self.spec.name}, lsd={'on' if self.lsd_enabled else 'off'})"
