"""A physical core: shared frontend engine + L1 instruction cache.

The :class:`Core` owns the microarchitectural state the attacks exploit —
the DSB (shared between the core's hardware threads), per-thread LSDs, and
the L1I — and exposes single-threaded loop execution.  Concurrent
two-thread execution lives in :class:`repro.machine.smt.SmtExecutor`.
"""

from __future__ import annotations

from repro.caches.sa_cache import SetAssociativeCache
from repro.errors import ConfigurationError
from repro.frontend.engine import FrontendEngine, LoopReport
from repro.frontend.params import EnergyParams, FrontendParams
from repro.isa.program import LoopProgram
from repro.machine.specs import MachineSpec

__all__ = ["Core"]


class Core:
    """One simulated physical core of a Table I machine."""

    def __init__(
        self,
        spec: MachineSpec,
        params: FrontendParams | None = None,
        energy: EnergyParams | None = None,
    ) -> None:
        self.spec = spec
        base = params or FrontendParams()
        self.params = base.with_overrides(
            dsb_sets=spec.dsb_sets,
            dsb_ways=spec.dsb_ways,
            lsd_capacity=spec.lsd_entries if spec.lsd_enabled else base.lsd_capacity,
        )
        self.energy = energy or EnergyParams()
        self.l1i = SetAssociativeCache(
            sets=spec.l1i_sets,
            ways=spec.l1i_ways,
            line_bytes=spec.l1i_line_bytes,
            name="L1I",
        )
        self.engine = FrontendEngine(
            params=self.params,
            energy=self.energy,
            n_threads=spec.threads_per_core,
            lsd_enabled=spec.lsd_enabled,
            l1i=self.l1i,
        )

    @property
    def n_threads(self) -> int:
        return self.spec.threads_per_core

    def run_loop(
        self,
        program: LoopProgram,
        thread: int = 0,
        smt_active: bool = False,
        exact: bool = False,
    ) -> LoopReport:
        """Execute a loop program on one hardware thread."""
        self._check_thread(thread, smt_active)
        return self.engine.run_loop(program, thread, smt_active, exact=exact)

    def run_loops(
        self,
        programs: tuple[LoopProgram, ...],
        thread: int = 0,
        smt_active: bool = False,
    ) -> tuple[LoopReport, ...]:
        """Execute loop programs one after another on one hardware thread
        (see :meth:`FrontendEngine.run_loops`)."""
        self._check_thread(thread, smt_active)
        return self.engine.run_loops(programs, thread, smt_active)

    def _check_thread(self, thread: int, smt_active: bool) -> None:
        if thread >= self.n_threads:
            raise ConfigurationError(
                f"{self.spec.name} has {self.n_threads} thread(s) per core; "
                f"thread {thread} does not exist"
            )
        if smt_active and not self.spec.smt:
            raise ConfigurationError(
                f"{self.spec.name} has hyper-threading disabled"
            )

    def reset(self) -> None:
        """Return the core to a cold state (new process / context)."""
        for thread in range(self.n_threads):
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
