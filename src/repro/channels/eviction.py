"""Eviction-based covert channels (Sections IV-A and IV-C).

Both channels transmit a bit by either overflowing a DSB set (``m=1``:
``N+1`` blocks now compete for ``N`` ways, evictions redirect delivery to
MITE+DSB and flush the LSD) or leaving it intact (``m=0``: delivery stays
on the fast LSD/DSB path).

* :class:`MtEvictionChannel` — sender and receiver are *hyper-threads of
  the same core*.  The receiver loops over its ``d`` blocks, timing each
  pass; when the sender runs its ``N+1-d`` same-set blocks on the sibling
  thread, the SMT-folded DSB makes their lines compete with the
  receiver's, producing sustained receiver-visible thrash (Figure 7).
* :class:`NonMtEvictionChannel` — single hardware thread,
  internal-interference (Figure 9): the sender's own init/encode/decode
  sequence overflows (or not) the target set; the receiver times the
  whole sequence.  The ``stealthy`` variant encodes a 0 with equal work
  on a decoy set; the ``fast`` variant simply skips the encode step.
"""

from __future__ import annotations

from repro.channels.base import ChannelConfig, MtChannel, NonMtChannel
from repro.errors import ChannelError
from repro.isa.blocks import DSB_WAYS, MixBlock
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine

__all__ = ["MtEvictionChannel", "NonMtEvictionChannel"]


def _check_d(config: ChannelConfig) -> None:
    if not 1 <= config.d <= DSB_WAYS:
        raise ChannelError(
            f"d must be in 1..{DSB_WAYS} for eviction channels, got {config.d}"
        )


class NonMtEvictionChannel(NonMtChannel):
    """Non-MT eviction channel (Section IV-C), stealthy or fast variant."""

    def __init__(
        self,
        machine: Machine,
        config: ChannelConfig | None = None,
        variant: str = "stealthy",
    ) -> None:
        if variant not in ("stealthy", "fast"):
            raise ChannelError(f"variant must be 'stealthy' or 'fast', got {variant!r}")
        self.variant = variant
        self.name = f"non-mt-{variant}-eviction"
        super().__init__(machine, config)
        _check_d(self.config)
        layout = machine.layout()
        d = self.config.d
        # Blocks 0..N map to the target set: the receiver's d plus the
        # sender's N+1-d overflow the set's N ways exactly by one.
        all_blocks = layout.chain(self.config.target_set, DSB_WAYS + 1, label="evict.x")
        self._probe_blocks: list[MixBlock] = all_blocks[:d]
        self._encode_blocks: list[MixBlock] = all_blocks[d:]
        self._decoy_blocks: list[MixBlock] = layout.chain(
            self.config.decoy_set,
            DSB_WAYS + 1 - d,
            first_slot=d,
            label="evict.y",
        )
        self._programs = self._bit_programs()

    def bit_body(self, m: int) -> list[MixBlock]:
        """The Init + Encode + Decode block sequence for one bit value."""
        m = self._validate_bit(m)
        if m:
            encode = self._encode_blocks
        elif self.variant == "stealthy":
            encode = self._decoy_blocks
        else:
            encode = []
        return self._probe_blocks + encode + self._probe_blocks


class MtEvictionChannel(MtChannel):
    """Hyper-threaded eviction channel (Section IV-A, Figure 7)."""

    name = "mt-eviction"

    #: Iteration counts for the MT setting (Section V-A): p = 1000
    #: receiver decode traversals, q = 100 sender encode steps.
    DEFAULTS = {"p": 1000, "q": 100}

    def __init__(self, machine: Machine, config: ChannelConfig | None = None) -> None:
        super().__init__(machine, config)
        _check_d(self.config)
        layout = machine.layout()
        cfg = self.config
        all_blocks = layout.chain(cfg.target_set, DSB_WAYS + 1, label="mt-evict.x")
        self._receiver = LoopProgram(all_blocks[: cfg.d], cfg.p, "mt-evict.recv")
        self._sender = LoopProgram(all_blocks[cfg.d :], cfg.q, "mt-evict.send")
