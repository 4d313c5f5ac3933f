"""Slow-switch (LCP) covert channel (Section IV-E).

Length Changing Prefixes force the frontend from the DSB back to MITE and
stall the length predecoder.  Crucially, the *arrangement* of the same
instructions changes the number of path switches:

* ``m=1`` — *mixed issue*: one plain ``add`` followed by one LCP ``add``,
  alternating ``r`` times.  Every LCP run costs a DSB->MITE->DSB round
  trip, maximising switch penalties.
* ``m=0`` — *ordered issue*: ``r`` plain ``add`` then ``r`` LCP ``add``.
  Same instruction and LCP-stall counts, but only a couple of switches.

Both encodings execute identical uop counts, so the timing difference
isolates exactly the switch penalty + LCP stall interaction that Figure 6
validates with performance counters.
"""

from __future__ import annotations

from repro.channels.base import ChannelConfig, NonMtChannel
from repro.errors import ChannelError
from repro.isa.blocks import MixBlock, lcp_block
from repro.machine.machine import Machine

__all__ = ["SlowSwitchChannel"]


class SlowSwitchChannel(NonMtChannel):
    """Non-MT covert channel built from LCP-induced switch penalties."""

    name = "non-mt-slow-switch"

    def __init__(self, machine: Machine, config: ChannelConfig | None = None) -> None:
        super().__init__(machine, config)
        r = self.config.r
        layout = machine.layout()
        base_mixed = layout.block_address(self.config.target_set, 0)
        base_ordered = layout.block_address(self.config.target_set, 8)
        self._mixed = lcp_block(base_mixed, lcp_sets=r, mixed=True, label="lcp.mixed")
        self._ordered = lcp_block(
            base_ordered, lcp_sets=r, mixed=False, label="lcp.ordered"
        )
        if self._mixed.uop_count != self._ordered.uop_count:
            raise ChannelError(
                "mixed/ordered encodings must retire identical uop counts"
            )
        self._programs = self._bit_programs()

    def bit_body(self, m: int) -> list[MixBlock]:
        """Mixed issue encodes a 1, ordered issue a 0."""
        return [self._mixed if self._validate_bit(m) else self._ordered]
