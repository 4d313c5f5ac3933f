"""Misalignment-based covert channels (Sections IV-B and IV-D).

Instead of overflowing a DSB set, these channels exploit the LSD's
intolerance of window-spanning ("misaligned") blocks: a handful of
blocks offset 16 bytes past their window boundary collide in the LSD
*without* causing DSB evictions, redirecting delivery from the LSD to the
DSB.  Sender + receiver together touch only ``M <= N`` blocks, one fewer
access per iteration than the eviction channels — which is why the paper's
fastest attack (1.4 Mbps) is the non-MT misalignment channel.

* :class:`MtMisalignmentChannel` (Figure 8): the receiver's aligned
  ``d``-block loop streams from its LSD; the sender's misaligned
  same-set blocks on the sibling thread disturb that stream.
* :class:`NonMtMisalignmentChannel`: internal interference on one
  thread; the ``stealthy`` variant encodes a 0 with *aligned* blocks of
  the same count, the ``fast`` variant with no encode accesses.
"""

from __future__ import annotations

from repro.channels.base import ChannelConfig, MtChannel, NonMtChannel
from repro.channels.eviction import MtEvictionChannel
from repro.errors import ChannelError
from repro.isa.blocks import DSB_WAYS, MixBlock
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine

__all__ = ["MtMisalignmentChannel", "NonMtMisalignmentChannel"]


def _check_misalign_params(config: ChannelConfig) -> None:
    if not 1 <= config.d < config.M:
        raise ChannelError(
            f"misalignment channels need 1 <= d < M (got d={config.d}, M={config.M})"
        )
    if config.M > DSB_WAYS:
        raise ChannelError(
            f"misalignment channels need M <= N={DSB_WAYS} so no evictions occur "
            f"(got M={config.M})"
        )


class NonMtMisalignmentChannel(NonMtChannel):
    """Non-MT misalignment channel (Section IV-D), stealthy or fast."""

    #: Paper defaults for misalignment channels (Section V-C).
    DEFAULTS = {"d": 5, "M": 8}

    def __init__(
        self,
        machine: Machine,
        config: ChannelConfig | None = None,
        variant: str = "stealthy",
    ) -> None:
        if variant not in ("stealthy", "fast"):
            raise ChannelError(f"variant must be 'stealthy' or 'fast', got {variant!r}")
        self.variant = variant
        self.name = f"non-mt-{variant}-misalignment"
        super().__init__(machine, config)
        _check_misalign_params(self.config)
        layout = machine.layout()
        d, M = self.config.d, self.config.M
        target = self.config.target_set
        self._probe_blocks = layout.chain(target, d, label="mis.probe")
        self._encode_misaligned = layout.chain(
            target, M - d, misaligned=True, first_slot=d, label="mis.enc1"
        )
        self._encode_aligned = layout.chain(
            target, M - d, first_slot=d, label="mis.enc0"
        )
        self._programs = self._bit_programs()

    def bit_body(self, m: int) -> list[MixBlock]:
        """The Init + Encode + Decode block sequence for one bit value."""
        m = self._validate_bit(m)
        if m:
            encode = self._encode_misaligned
        elif self.variant == "stealthy":
            encode = self._encode_aligned
        else:
            encode = []
        return self._probe_blocks + encode + self._probe_blocks


class MtMisalignmentChannel(MtChannel):
    """Hyper-threaded misalignment channel (Section IV-B, Figure 8)."""

    name = "mt-misalignment"

    DEFAULTS = {**MtEvictionChannel.DEFAULTS, **NonMtMisalignmentChannel.DEFAULTS}

    def __init__(self, machine: Machine, config: ChannelConfig | None = None) -> None:
        super().__init__(machine, config)
        _check_misalign_params(self.config)
        layout = machine.layout()
        cfg = self.config
        self._receiver = LoopProgram(
            layout.chain(cfg.target_set, cfg.d, label="mt-mis.recv"),
            cfg.p,
            "mt-mis.recv",
        )
        self._sender = LoopProgram(
            layout.chain(
                cfg.target_set,
                cfg.M - cfg.d,
                misaligned=True,
                first_slot=cfg.d,
                label="mt-mis.send",
            ),
            cfg.q,
            "mt-mis.send",
        )
