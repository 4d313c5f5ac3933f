"""Instruction mix blocks (Section III-A4).

A *mix block* is the paper's unit of frontend probing: a short run of
instructions, placed at a chosen virtual address, that

* fits one 32-byte instruction window (so it occupies exactly one DSB line
  when aligned, two when misaligned across a window boundary),
* decodes to at most 6 uops (the DSB line limit),
* avoids memory uops and port contention (so the frontend, not the
  backend, is the execution bottleneck), and
* ends with a ``jmp`` to the next block, chaining blocks into a loop.

The canonical block is 4 ``mov r32, imm32`` + 1 ``jmp rel32`` = 25 bytes
and 5 uops, exactly as the paper describes.

A block's geometry (``size``, ``end``, ``uop_count``, ``lcp_count``,
``windows``, ``spans_windows``) and its hash are computed once, at
construction; :meth:`MixBlock.relocated` and ``dataclasses.replace``
build a new block and so recompute them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import LayoutError
from repro.isa.instructions import (
    Instruction,
    add_reg,
    add_reg_lcp,
    jmp_rel32,
    mov_imm32,
)

__all__ = ["MixBlock", "standard_mix_block", "lcp_block", "filler_block", "dsb_set"]

#: Bytes per DSB instruction window (and per DSB line).
WINDOW_BYTES = 32

#: Maximum uops a single DSB line can hold.
DSB_LINE_UOPS = 6

#: DSB sets and ways (Section III-B); every Table I machine has them.
DSB_SETS = 32
DSB_WAYS = 8


def dsb_set(addr: int) -> int:
    """Single-thread DSB set index of ``addr`` (``addr[9:5]``)."""
    return (addr // WINDOW_BYTES) % DSB_SETS


@dataclass(frozen=True)
class MixBlock:
    """A sequence of instructions placed at a virtual address.

    Attributes
    ----------
    base:
        Virtual address of the first instruction byte.
    instructions:
        The block body, in program order.  The last instruction is
        normally a ``jmp`` to the next block in the chain.
    label:
        Optional human-readable tag used in traces and test output.

    Derived attributes, set once at construction (not dataclass fields):
    ``size`` (total encoded bytes), ``end`` (one past the last byte),
    ``uop_count``, ``lcp_count`` (instructions carrying a
    length-changing prefix), ``windows`` (window-aligned start address
    of every 32B window the block touches) and ``spans_windows`` (the
    block crosses a window boundary, i.e. is misaligned).
    """

    base: int
    instructions: tuple[Instruction, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.base < 0:
            raise LayoutError(f"negative base address {self.base:#x}")
        if not self.instructions:
            raise LayoutError("mix block must contain at least one instruction")
        size = sum(i.length for i in self.instructions)
        end = self.base + size
        first = self.base - (self.base % WINDOW_BYTES)
        last = (end - 1) - ((end - 1) % WINDOW_BYTES)
        windows = tuple(range(first, last + 1, WINDOW_BYTES))
        set_ = object.__setattr__
        set_(self, "size", size)
        set_(self, "end", end)
        set_(self, "uop_count", sum(i.uop_count for i in self.instructions))
        set_(self, "lcp_count", sum(1 for i in self.instructions if i.has_lcp))
        set_(self, "windows", windows)
        set_(self, "spans_windows", len(windows) > 1)
        set_(self, "_hash", hash((self.base, self.instructions, self.label)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: the cached hash mixes in the
        # label's ``str`` hash, which differs between processes.
        return (MixBlock, (self.base, self.instructions, self.label))

    @property
    def is_aligned(self) -> bool:
        """True if the block starts on a 32-byte window boundary."""
        return self.base % WINDOW_BYTES == 0

    def instruction_addresses(self) -> Iterator[tuple[int, Instruction]]:
        """Yield ``(address, instruction)`` pairs in program order."""
        addr = self.base
        for instruction in self.instructions:
            yield addr, instruction
            addr += instruction.length

    def fits_one_dsb_line(self) -> bool:
        """Check the paper's two structural mix-block requirements.

        The block body must not exceed one 32-byte window and must decode
        to at most 6 uops, so that an *aligned* placement occupies exactly
        one DSB line.
        """
        return self.size <= WINDOW_BYTES and self.uop_count <= DSB_LINE_UOPS

    def relocated(self, new_base: int) -> "MixBlock":
        """Return a copy of this block placed at ``new_base``."""
        return MixBlock(base=new_base, instructions=self.instructions, label=self.label)

    def __repr__(self) -> str:
        align = "aligned" if self.is_aligned else f"off+{self.base % WINDOW_BYTES}"
        tag = f" {self.label}" if self.label else ""
        return (
            f"MixBlock({self.base:#x},{tag} {self.size}B/"
            f"{self.uop_count}uops, {align})"
        )


def standard_mix_block(base: int, label: str = "") -> MixBlock:
    """The canonical 4 ``mov`` + 1 ``jmp`` block: 25 bytes, 5 uops.

    Uses distinct destination registers for the four ``mov`` instructions
    so the backend can issue them to different ports without dependencies,
    keeping the frontend the bottleneck (Section III-A4).
    """
    body = tuple(mov_imm32(reg) for reg in range(4)) + (jmp_rel32(),)
    block = MixBlock(base=base, instructions=body, label=label)
    if not block.fits_one_dsb_line():  # pragma: no cover - structural invariant
        raise LayoutError("standard mix block violates DSB line limits")
    return block


def lcp_block(base: int, lcp_sets: int = 16, mixed: bool = True, label: str = "") -> MixBlock:
    """Block of ``add`` instructions with/without LCP prefixes (Section III-D).

    Parameters
    ----------
    lcp_sets:
        ``r``: the number of LCP-prefixed ``add`` instructions (and of
        normal ``add`` instructions) in the block.
    mixed:
        ``True`` builds the *mixed-issue* pattern (normal, LCP, normal,
        LCP, ...) which maximises DSB-to-MITE switches; ``False`` builds
        the *ordered-issue* pattern (all normal ``add`` then all LCP
        ``add``) which minimises them.  Both contain ``2 * lcp_sets``
        instructions and identical uop totals.
    """
    if lcp_sets < 1:
        raise LayoutError(f"lcp_sets must be >= 1, got {lcp_sets}")
    normal = [add_reg(dst=i % 4, src=(i + 1) % 4) for i in range(lcp_sets)]
    prefixed = [add_reg_lcp(dst=i % 4, src=(i + 1) % 4) for i in range(lcp_sets)]
    if mixed:
        body: list[Instruction] = []
        for plain, lcp in zip(normal, prefixed):
            body.extend((plain, lcp))
    else:
        body = normal + prefixed
    body.append(jmp_rel32())
    return MixBlock(base=base, instructions=tuple(body), label=label)


def filler_block(base: int, uops: int, label: str = "") -> MixBlock:
    """A block of ``uops`` single-uop ``mov`` instructions plus a jmp.

    Used to build loop bodies of arbitrary uop counts for the path-
    validation experiments (Section III-A3: 40 / 400 / 4000 uop loops).
    The block may span many windows; it is *not* a single-DSB-line block.
    """
    if uops < 1:
        raise LayoutError(f"uops must be >= 1, got {uops}")
    body = tuple(mov_imm32(i % 4) for i in range(uops - 1)) + (jmp_rel32(),)
    return MixBlock(base=base, instructions=body, label=label)
