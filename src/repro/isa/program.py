"""Loop programs: the unit of execution the frontend engine consumes.

All of the paper's experiments execute a *loop body* (a sequence of mix
blocks chained by jumps) for some number of iterations.  The
:class:`LoopProgram` captures exactly that: the body, the iteration count,
and derived structural properties the LSD qualification logic needs (total
uops, window footprint, misaligned-block count).  Those properties and
the program's hash are computed once, at construction: the simulator
reads them on every iteration it interprets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import LayoutError
from repro.isa.blocks import MixBlock

__all__ = ["LoopProgram"]


@dataclass(frozen=True)
class LoopProgram:
    """A loop over a chain of mix blocks.

    Attributes
    ----------
    body:
        Mix blocks executed once per iteration, in order.  The terminal
        ``jmp`` of the last block is the loop's backward branch.
    iterations:
        Number of times the body executes.
    label:
        Tag used in traces and reports.

    Derived attributes, set once at construction (not dataclass fields):
    ``uops_per_iteration``, ``windows`` (all distinct 32B windows the
    body touches, in first-touch order), ``window_events_per_iteration``
    (window accesses per iteration; misaligned blocks count twice),
    ``misaligned_blocks``, ``lcp_instructions_per_iteration`` and
    ``loop_key`` (the blocks' base addresses, the body's identity for
    LSD tracking).
    """

    body: tuple[MixBlock, ...]
    iterations: int
    label: str = ""

    def __init__(
        self, body: Sequence[MixBlock], iterations: int, label: str = ""
    ) -> None:
        if not body:
            raise LayoutError("loop body must contain at least one block")
        if iterations < 1:
            raise LayoutError(f"iterations must be >= 1, got {iterations}")
        body = tuple(body)
        iterations = int(iterations)
        windows = dict.fromkeys(w for b in body for w in b.windows)
        set_ = object.__setattr__
        set_(self, "body", body)
        set_(self, "iterations", iterations)
        set_(self, "label", label)
        set_(self, "uops_per_iteration", sum(b.uop_count for b in body))
        set_(self, "windows", tuple(windows))
        set_(self, "window_events_per_iteration", sum(len(b.windows) for b in body))
        set_(self, "misaligned_blocks", sum(1 for b in body if b.spans_windows))
        set_(self, "lcp_instructions_per_iteration", sum(b.lcp_count for b in body))
        set_(self, "loop_key", tuple(b.base for b in body))
        set_(self, "_hash", hash((body, iterations, label)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: the cached hash mixes in the
        # label's ``str`` hash, which differs between processes.
        return (LoopProgram, (self.body, self.iterations, self.label))

    @property
    def total_uops(self) -> int:
        return self.uops_per_iteration * self.iterations

    @property
    def aligned_blocks(self) -> int:
        return len(self.body) - self.misaligned_blocks

    def with_iterations(self, iterations: int) -> "LoopProgram":
        """Same body, different trip count.

        The derived attributes depend on the body alone, so they are
        copied; only ``iterations`` and the hash are recomputed.
        """
        if iterations < 1:
            raise LayoutError(f"iterations must be >= 1, got {iterations}")
        iterations = int(iterations)
        clone = object.__new__(LoopProgram)
        clone.__dict__.update(self.__dict__)
        set_ = object.__setattr__
        set_(clone, "iterations", iterations)
        set_(clone, "_hash", hash((self.body, iterations, self.label)))
        return clone

    def concat(self, other: "LoopProgram", label: str = "") -> "LoopProgram":
        """Fuse two bodies into one loop (iteration counts must match).

        Used to build the non-MT attack loops whose single body contains
        the init, encode, and decode block sequences back to back.
        """
        if other.iterations != self.iterations:
            raise LayoutError(
                "cannot concatenate loops with different iteration counts "
                f"({self.iterations} vs {other.iterations})"
            )
        return LoopProgram(
            self.body + other.body, self.iterations, label or self.label
        )

    def __repr__(self) -> str:
        tag = f" {self.label}" if self.label else ""
        return (
            f"LoopProgram({tag} {len(self.body)} blocks, "
            f"{self.uops_per_iteration} uops/iter x {self.iterations})"
        )
