"""Placement of mix-block chains onto DSB sets (Figure 5).

The DSB indexes lines by virtual address bits ``addr[9:5]`` (with 32 sets
and 32-byte windows), so two blocks map to the same DSB set when their
addresses differ by a multiple of ``32 sets * 32 bytes = 1024 bytes``.
The L1I cache (64 sets x 64-byte lines) indexes by ``addr[11:6]``, so a
1024-byte stride walks *different* L1I sets — which is why DSB-set chains
never contend in the L1I (Figure 5, Section III-B).

:class:`BlockChainLayout` produces chains of blocks that

* all map to a requested DSB set,
* are aligned (window-boundary start) or misaligned by 16 bytes,
* chain via their terminal ``jmp`` so that executing block 0 executes the
  whole chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import LayoutError
from repro.isa.blocks import DSB_SETS, WINDOW_BYTES, MixBlock, standard_mix_block

__all__ = ["BlockChainLayout", "WINDOW_BYTES", "MISALIGN_OFFSET"]

#: The paper misaligns blocks by half a DSB window (16 bytes).
MISALIGN_OFFSET = WINDOW_BYTES // 2


@dataclass
class BlockChainLayout:
    """Factory for DSB-set-targeted chains of instruction mix blocks.

    Parameters
    ----------
    region_base:
        Virtual base address of the code region blocks are placed in.
        Must be aligned to one full DSB period (``DSB_SETS * WINDOW_BYTES``).
    block_factory:
        Callable ``(base, label) -> MixBlock`` used for each chain entry.
        Defaults to the canonical 4-mov+1-jmp block.
    """

    region_base: int = 0x400000
    block_factory: Callable[[int, str], MixBlock] = field(default=standard_mix_block)

    def __post_init__(self) -> None:
        if self.region_base % self.period:
            raise LayoutError(
                f"region_base {self.region_base:#x} not aligned to DSB period "
                f"{self.period:#x}"
            )

    @property
    def period(self) -> int:
        """Address stride that repeats the DSB set mapping."""
        return DSB_SETS * WINDOW_BYTES

    def block_address(self, dsb_set: int, way_slot: int, misaligned: bool = False) -> int:
        """Address of the ``way_slot``-th block mapping to ``dsb_set``.

        Consecutive ``way_slot`` values advance by one DSB period so every
        block lands in the same set but a different L1I set.  Misaligned
        placement shifts the block by half a window.
        """
        if not 0 <= dsb_set < DSB_SETS:
            raise LayoutError(f"dsb_set must be in 0..{DSB_SETS - 1}, got {dsb_set}")
        if way_slot < 0:
            raise LayoutError(f"way_slot must be >= 0, got {way_slot}")
        addr = self.region_base + way_slot * self.period + dsb_set * WINDOW_BYTES
        if misaligned:
            addr += MISALIGN_OFFSET
        return addr

    def chain(
        self,
        dsb_set: int,
        count: int,
        misaligned: bool = False,
        first_slot: int = 0,
        label: str = "chain",
    ) -> list[MixBlock]:
        """Build ``count`` chained blocks that all map to ``dsb_set``.

        Parameters
        ----------
        misaligned:
            Place every block 16 bytes past its window boundary, so each
            block spans two windows (Section III-C).
        first_slot:
            Starting way slot; lets callers build disjoint chains (e.g.
            receiver blocks 1-6 and sender blocks 7-9 of the eviction
            attack) inside the same region without address collisions.
        """
        if count < 1:
            raise LayoutError(f"chain count must be >= 1, got {count}")
        blocks = [
            self.block_factory(
                self.block_address(dsb_set, first_slot + i, misaligned),
                f"{label}[{i}]",
            )
            for i in range(count)
        ]
        return blocks

    def mixed_chain(
        self,
        dsb_set: int,
        aligned_count: int,
        misaligned_count: int,
        label: str = "mixed",
    ) -> list[MixBlock]:
        """Chain of ``aligned_count`` aligned then ``misaligned_count`` misaligned blocks.

        This is the {aligned + misaligned} access-pair construction of
        Section III-C.  All blocks map to ``dsb_set``; misaligned blocks
        occupy later way slots so their primary windows do not collide
        with the aligned blocks' windows.
        """
        if aligned_count < 0 or misaligned_count < 0:
            raise LayoutError("block counts must be non-negative")
        if aligned_count + misaligned_count < 1:
            raise LayoutError("mixed chain must contain at least one block")
        aligned = self.chain(dsb_set, aligned_count, label=f"{label}.a") if aligned_count else []
        misaligned = (
            self.chain(
                dsb_set,
                misaligned_count,
                misaligned=True,
                first_slot=aligned_count,
                label=f"{label}.m",
            )
            if misaligned_count
            else []
        )
        return aligned + misaligned

    def sweep_chains(
        self, count_per_set: int, label: str = "sweep"
    ) -> list[list[MixBlock]]:
        """One chain per DSB set value 0..31 (the Figure 2 sweep workload)."""
        return [
            self.chain(dsb_set, count_per_set, label=f"{label}.set{dsb_set}")
            for dsb_set in range(DSB_SETS)
        ]
