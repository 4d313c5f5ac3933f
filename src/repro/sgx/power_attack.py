"""Power-based SGX attack (Section VII-3).

The paper: "even if RAPL is disabled for user-level code, power-based SGX
attacks are possible because RAPL can be accessed from the privileged,
malicious OS."  SGX's threat model explicitly distrusts the OS — so a
malicious kernel reading the package energy counter around each enclave
call sees the enclave Trojan's frontend-path modulation regardless of any
user-level RAPL lockdown.

:class:`SgxPowerAttack` wires this together: the Trojan runs the
eviction- or misalignment-encoded Init/Encode/Decode loop inside the
enclave (RAPL-visible energy, not timing, is the observable), and the
receiver differences a *privileged* RAPL interface that works even when
``machine.spec.rapl`` is False.
"""

from __future__ import annotations

from repro.channels.base import ChannelConfig
from repro.channels.power import POWER_ITERATIONS
from repro.machine.machine import Machine
from repro.measure.rapl import RaplInterface
from repro.sgx.attacks import SgxNonMtAttack
from repro.sgx.enclave import EnclaveParams

__all__ = ["SgxPowerAttack"]


class SgxPowerAttack(SgxNonMtAttack):
    """Privileged-OS power attack on an SGX enclave."""

    requires_rapl = False  # deliberately: the privileged path bypasses it
    #: RAPL-refresh-limited iteration count, as for the Table V channels.
    DEFAULTS = {"p": POWER_ITERATIONS, "q": POWER_ITERATIONS}
    NAME = "sgx-power-{variant}-{mechanism}"

    def __init__(
        self,
        machine: Machine,
        mechanism: str = "eviction",
        variant: str = "fast",
        config: ChannelConfig | None = None,
        enclave_params: EnclaveParams | None = None,
    ) -> None:
        super().__init__(machine, mechanism, variant, config, enclave_params)
        # The malicious OS's own RAPL handle: enabled regardless of the
        # machine's user-level RAPL policy.
        self.meter = RaplInterface(
            machine.rngs.stream("sgx-privileged-rapl"),
            frequency_hz=machine.spec.frequency_hz,
            enabled=True,
        )
