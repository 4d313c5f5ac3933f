"""Intel SGX enclave execution model.

Only the properties relevant to the paper's attacks are modelled:

* **transition costs** — EENTER and EEXIT each take thousands of cycles
  (context save/restore, TLB flush).  The paper's attacks amortise this
  with a single entry and exit per transmitted bit.
* **execution slowdown** — enclave code runs slower than the same code
  outside: EPC accesses pay Memory Encryption Engine latency and the
  enclave's working set competes for the protected region.  We model a
  constant multiplicative factor on cycles and energy.
* **shared frontend** — crucially, *nothing* about the DSB/LSD/MITE state
  is partitioned or flushed between enclave and non-enclave execution on
  the same hardware thread (the iTLB flush does not touch decoded-uop
  structures), which is exactly the gap the attacks exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, EnclaveError
from repro.frontend.engine import LoopReport
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine

__all__ = ["Enclave", "EnclaveParams"]


@dataclass(frozen=True)
class EnclaveParams:
    """Cost model of the SGX runtime.

    eenter_cycles / eexit_cycles:
        One-way transition costs (Skylake-measured values are in the
        3,000-8,000 cycle range depending on enclave size).
    slowdown:
        Multiplier on enclave-executed cycles (MEE latency, EPC paging
        pressure).  Applied to energy as well.
    """

    eenter_cycles: float = 7000.0
    eexit_cycles: float = 4000.0
    slowdown: float = 4.0

    def __post_init__(self) -> None:
        if self.eenter_cycles < 0 or self.eexit_cycles < 0:
            raise ConfigurationError("transition costs must be non-negative")
        if self.slowdown < 1.0:
            raise ConfigurationError("enclave slowdown must be >= 1.0")

    @property
    def round_trip_cycles(self) -> float:
        return self.eenter_cycles + self.eexit_cycles


class Enclave:
    """An SGX enclave hosted on a machine.

    The enclave runs loop programs through the host core's frontend —
    sharing the DSB, LSD, and MITE with non-enclave code — while paying
    the enclave execution overheads.
    """

    def __init__(self, machine: Machine, params: EnclaveParams | None = None) -> None:
        if not machine.spec.sgx:
            raise EnclaveError(f"{machine.spec.name} has no SGX support")
        self.machine = machine
        self.params = params or EnclaveParams()
        self._entered = False
        self.transitions = 0

    @property
    def entered(self) -> bool:
        return self._entered

    def enter(self) -> float:
        """EENTER; returns the transition cost in cycles."""
        if self._entered:
            raise EnclaveError("enclave is already entered")
        self._entered = True
        self.transitions += 1
        return self.params.eenter_cycles

    def exit(self) -> float:
        """EEXIT; returns the transition cost in cycles."""
        if not self._entered:
            raise EnclaveError("cannot exit an enclave that was not entered")
        self._entered = False
        self.transitions += 1
        return self.params.eexit_cycles

    def run(
        self, program: LoopProgram, thread: int = 0, smt_active: bool = False
    ) -> LoopReport:
        """Execute a loop inside the enclave (must be entered).

        The returned report's cycles and energy are inflated by the
        enclave slowdown; the *microarchitectural* side effects (DSB
        fills/evictions, LSD streams) are identical to normal execution,
        which is the attack surface.
        """
        if not self._entered:
            raise EnclaveError("enter() the enclave before running code in it")
        report = self.machine.run_loop(program, thread=thread, smt_active=smt_active)
        report.cycles *= self.params.slowdown
        report.energy_nj *= self.params.slowdown
        return report

    def ecall(
        self, program: LoopProgram, thread: int = 0, smt_active: bool = False
    ) -> LoopReport:
        """Convenience: enter, run, exit; transition costs included."""
        enter_cost = self.enter()
        try:
            report = self.run(program, thread=thread, smt_active=smt_active)
        finally:
            exit_cost = self.exit()
        report.cycles += enter_cost + exit_cost
        report.energy_nj += (
            enter_cost + exit_cost
        ) * self.machine.energy.cycle_energy
        return report
