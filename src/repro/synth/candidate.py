"""The attack-program genome the synthesiser searches over.

A :class:`CandidateProgram` is a JSON-round-trippable description of a
non-MT sender/receiver pair in the grammar of ``repro.isa``:

* ``probe`` segments — the receiver's Init/Decode block chains, built
  once and executed both before and after the encode step so the same
  addresses are probed on both sides of the sender's work;
* ``encode`` segments — the sender's work for a 1 bit;
* ``decoy_stride`` — the sender's work for a 0 bit is the *same*
  segments remapped to DSB set ``(set + stride) % 32``.

The decoy construction makes every candidate *work-balanced by
construction* (the paper's "stealthy" property): both bit bodies contain
identical instruction multisets, so a timing difference can only come
from frontend path effects (DSB set contention, misalignment window
splits, LCP decode switches) — never from trivially skipping work.
This matters for the oracle: an unbalanced grammar would "discover"
degenerate senders that no frontend mitigation could (or should) stop.

Segments choose the block shape (``std`` mix blocks or ``lcp``
prefix-pressure blocks), the DSB set, the chain length, and 16-byte
misalignment.  Slot allocation is deterministic: per-set way-slot
counters advance in segment order (probe, then encode, then decoy), so
equal genomes always build byte-identical :class:`LoopProgram` bodies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.isa.blocks import DSB_SETS, MixBlock, lcp_block, standard_mix_block
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram
from repro.wire import Wire

__all__ = [
    "SEGMENT_KINDS",
    "DSB_SETS",
    "MAX_SEGMENTS",
    "MAX_SEGMENT_BLOCKS",
    "MAX_ITERATIONS",
    "Segment",
    "CandidateProgram",
]

#: Block shapes the grammar knows.
SEGMENT_KINDS = ("std", "lcp")
#: Upper bound on probe/encode segment list length.
MAX_SEGMENTS = 4
#: Upper bound on blocks per segment (the DSB has 8 ways; a chain a bit
#: beyond ``ways + 1`` is all contention needs).
MAX_SEGMENT_BLOCKS = 12
#: Upper bound on receiver iterations per bit.
MAX_ITERATIONS = 200


@dataclass(frozen=True)
class Segment(Wire):
    """One chained run of same-set blocks in a candidate body."""

    kind: str = "std"
    dsb_set: int = 0
    count: int = 1
    misaligned: bool = False
    #: ``r``: LCP pairs per block; only meaningful for ``kind="lcp"``.
    lcp_sets: int = 4

    def __post_init__(self) -> None:
        if self.kind not in SEGMENT_KINDS:
            raise ConfigurationError(
                f"unknown segment kind {self.kind!r}; choose from "
                f"{sorted(SEGMENT_KINDS)}"
            )
        if not 0 <= self.dsb_set < DSB_SETS:
            raise ConfigurationError(
                f"dsb_set must be in 0..{DSB_SETS - 1}, got {self.dsb_set}"
            )
        if not 1 <= self.count <= MAX_SEGMENT_BLOCKS:
            raise ConfigurationError(
                f"count must be in 1..{MAX_SEGMENT_BLOCKS}, got {self.count}"
            )
        if not 1 <= self.lcp_sets <= 8:
            raise ConfigurationError(
                f"lcp_sets must be in 1..8, got {self.lcp_sets}"
            )

    # ------------------------------------------------------------------
    def blocks(
        self, layout: BlockChainLayout, first_slot: int, label: str
    ) -> list[MixBlock]:
        """Build this segment's chain starting at ``first_slot``."""
        if self.kind == "lcp":
            return [
                lcp_block(
                    layout.block_address(
                        self.dsb_set, first_slot + i, self.misaligned
                    ),
                    lcp_sets=self.lcp_sets,
                    mixed=True,
                    label=f"{label}[{i}]",
                )
                for i in range(self.count)
            ]
        return [
            standard_mix_block(
                layout.block_address(
                    self.dsb_set, first_slot + i, self.misaligned
                ),
                f"{label}[{i}]",
            )
            for i in range(self.count)
        ]


@dataclass(frozen=True)
class CandidateProgram(Wire):
    """A complete sender/receiver genome (see module docstring)."""

    probe: tuple[Segment, ...]
    encode: tuple[Segment, ...]
    decoy_stride: int = 16
    iterations: int = 10

    def __post_init__(self) -> None:
        # Freeze list inputs so genomes hash/compare by value.
        object.__setattr__(self, "probe", tuple(self.probe))
        object.__setattr__(self, "encode", tuple(self.encode))
        if not self.probe:
            raise ConfigurationError("candidate needs at least one probe segment")
        if not self.encode:
            raise ConfigurationError(
                "candidate needs at least one encode segment"
            )
        if len(self.probe) > MAX_SEGMENTS or len(self.encode) > MAX_SEGMENTS:
            raise ConfigurationError(
                f"at most {MAX_SEGMENTS} probe/encode segments allowed"
            )
        for segment in self.probe + self.encode:
            if not isinstance(segment, Segment):
                raise ConfigurationError(
                    f"segments must be Segment instances, got {segment!r}"
                )
        if not 1 <= self.decoy_stride < DSB_SETS:
            raise ConfigurationError(
                f"decoy_stride must be in 1..{DSB_SETS - 1}, "
                f"got {self.decoy_stride}"
            )
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ConfigurationError(
                f"iterations must be in 1..{MAX_ITERATIONS}, "
                f"got {self.iterations}"
            )

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    @property
    def decoy(self) -> tuple[Segment, ...]:
        """The 0-bit encode segments: same shapes, sets shifted by the stride."""
        return tuple(
            dataclasses.replace(
                segment,
                dsb_set=(segment.dsb_set + self.decoy_stride) % DSB_SETS,
            )
            for segment in self.encode
        )

    @property
    def total_blocks(self) -> int:
        """Blocks per bit body (probe runs twice: Init and Decode)."""
        probe = sum(segment.count for segment in self.probe)
        encode = sum(segment.count for segment in self.encode)
        return 2 * probe + encode

    @property
    def cost(self) -> int:
        """Shrinking objective: smaller is better, 0 is impossible."""
        return self.total_blocks * self.iterations

    # ------------------------------------------------------------------
    # program construction
    # ------------------------------------------------------------------
    def bodies(
        self, layout: BlockChainLayout
    ) -> tuple[list[MixBlock], list[MixBlock]]:
        """Build the (0-bit, 1-bit) Init+Encode+Decode block bodies.

        Probe blocks are built once and appear on both sides of the
        encode blocks, so Init and Decode probe identical addresses —
        the precondition for eviction-style channels.  Encode and decoy
        chains get their own way slots so no two blocks overlap.
        """
        slots: dict[int, int] = {}

        def allocate(segments: tuple[Segment, ...], label: str) -> list[MixBlock]:
            blocks: list[MixBlock] = []
            for index, segment in enumerate(segments):
                first = slots.get(segment.dsb_set, 0)
                slots[segment.dsb_set] = first + segment.count
                blocks.extend(
                    segment.blocks(layout, first, f"{label}{index}")
                )
            return blocks

        probe = allocate(self.probe, "synth.p")
        one = allocate(self.encode, "synth.e")
        zero = allocate(self.decoy, "synth.d")
        return probe + zero + probe, probe + one + probe

    def programs(
        self, layout: BlockChainLayout
    ) -> tuple[LoopProgram, LoopProgram]:
        """The per-bit loop programs ``(bit 0, bit 1)``."""
        zero, one = self.bodies(layout)
        return (
            LoopProgram(zero, self.iterations, "synth.bit0"),
            LoopProgram(one, self.iterations, "synth.bit1"),
        )

    #: ``key()`` is the genome's identity for corpus dedup and seed
    #: derivation: its canonical JSON — purely structural, no labels or
    #: provenance.
    key = Wire.to_json
