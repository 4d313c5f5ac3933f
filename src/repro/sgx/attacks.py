"""Frontend covert channels out of SGX enclaves (Section VII).

Both attacks place the *sender* Trojan inside the enclave:

* :class:`SgxNonMtAttack` — the receiver triggers one enclave call per
  bit and times it from outside.  The Trojan's Init/Encode/Decode loop
  (eviction- or misalignment-encoded, exactly as the non-MT channels of
  Section IV) runs for ``p`` = 1,000-5,000 iterations — far more than
  the 10 the non-SGX attacks need — to rise above the enclave
  transition and execution overheads.  The paper measures rates of
  roughly 1/25 to 1/30 of the corresponding non-SGX attacks.
* :class:`SgxMtAttack` — the Trojan runs on its own hardware thread
  inside the enclave; the receiver on the sibling hyper-thread measures
  its own loop.  When the enclave thread is active the DSB is partitioned
  and the receiver's blocks self-conflict; when it idles the receiver
  owns the whole DSB (p=1,000, q=10,000).
"""

from __future__ import annotations

from repro.channels.base import ChannelConfig, CovertChannel, MtChannel, NonMtChannel
from repro.channels.eviction import MtEvictionChannel, NonMtEvictionChannel
from repro.channels.misalignment import (
    MtMisalignmentChannel,
    NonMtMisalignmentChannel,
)
from repro.errors import ChannelError, EnclaveError
from repro.frontend.engine import LoopReport
from repro.isa.blocks import MixBlock
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.sgx.enclave import Enclave, EnclaveParams

__all__ = ["SgxNonMtAttack", "SgxMtAttack"]

_NONMT_MECHANISMS = {
    "eviction": NonMtEvictionChannel,
    "misalignment": NonMtMisalignmentChannel,
}
_MT_MECHANISMS = {
    "eviction": MtEvictionChannel,
    "misalignment": MtMisalignmentChannel,
}


def _mechanism(
    attack: CovertChannel,
    mechanisms: dict[str, type[CovertChannel]],
    mechanism: str,
    machine: Machine,
    config: ChannelConfig | None,
) -> tuple[type[CovertChannel], ChannelConfig]:
    """The mechanism's channel class and the attack's config.

    Without a config, the attack's own ``DEFAULTS`` apply over the
    mechanism's (e.g. misalignment's ``d`` and ``M``).
    """
    if mechanism not in mechanisms:
        raise ChannelError(
            f"mechanism must be one of {sorted(mechanisms)}, got {mechanism!r}"
        )
    if not machine.spec.sgx:
        raise EnclaveError(f"{machine.spec.name} has no SGX support")
    channel_cls = mechanisms[mechanism]
    if config is None:
        config = ChannelConfig(**{**channel_cls.DEFAULTS, **attack.DEFAULTS})
    return channel_cls, config


class SgxNonMtAttack(NonMtChannel):
    """Non-MT timing attack on an SGX enclave (Section VII-2).

    The one-thread protocol with each bit's loop run as one enclave
    call; the mechanism's channel supplies the bit bodies.
    """

    #: Paper: p = q = 1,000 - 5,000 iterations per bit for SGX.
    DEFAULTS = {"p": 1000, "q": 1000}
    #: ``name`` pattern; the name also names the channel's noise stream.
    NAME = "sgx-non-mt-{variant}-{mechanism}"

    def __init__(
        self,
        machine: Machine,
        mechanism: str = "eviction",
        variant: str = "stealthy",
        config: ChannelConfig | None = None,
        enclave_params: EnclaveParams | None = None,
    ) -> None:
        channel_cls, config = _mechanism(
            self, _NONMT_MECHANISMS, mechanism, machine, config
        )
        self.mechanism = mechanism
        self.name = self.NAME.format(variant=variant, mechanism=mechanism)
        super().__init__(machine, config)
        self.enclave = Enclave(machine, enclave_params)
        self._inner = channel_cls(machine, self.config, variant=variant)
        self._programs = self._bit_programs()

    def bit_body(self, m: int) -> list[MixBlock]:
        return self._inner.bit_body(m)

    def _run(self, program: LoopProgram) -> LoopReport:
        return self.enclave.ecall(program)


class SgxMtAttack(MtChannel):
    """MT timing attack on an SGX enclave (Section VII-1).

    The MT protocol with the mechanism's receiver and sender loops; the
    enclave sender is slowed by the enclave factor, and each bit pays
    one enclave entry and exit.
    """

    #: Paper iteration counts: p = 1,000 receiver decodes, q = 10,000
    #: enclave sender encodes per bit.
    DEFAULTS = {"p": 1000, "q": 10_000}

    def __init__(
        self,
        machine: Machine,
        mechanism: str = "eviction",
        config: ChannelConfig | None = None,
        enclave_params: EnclaveParams | None = None,
    ) -> None:
        channel_cls, config = _mechanism(
            self, _MT_MECHANISMS, mechanism, machine, config
        )
        self.mechanism = mechanism
        self.name = f"sgx-mt-{mechanism}"
        super().__init__(machine, config)
        self.enclave = Enclave(machine, enclave_params)
        inner = channel_cls(machine, self.config)
        self._receiver, self._sender = inner._receiver, inner._sender
        self._entry_cycles = self.enclave.params.round_trip_cycles
        self._sender_slowdown = self.enclave.params.slowdown
