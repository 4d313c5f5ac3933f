"""Loop Stream Detector (LSD) model.

The LSD lives in the IDQ and can continuously replay a loop of up to 64
uops, bypassing both MITE and DSB (Section III-A1).  It is private to a
hardware thread.  Our model is a small state machine:

``IDLE`` --(loop body qualifies for N consecutive iterations)--> ``STREAMING``

A loop body *qualifies* when

* the LSD is enabled on this machine (microcode patch 2 disables it),
* total body uops <= 64,
* every window was delivered from the DSB this iteration (no MITE
  activity — the DSB is inclusive of the LSD, so a loop cannot stream
  until it is fully DSB-resident),
* the body contains no LCP-prefixed instructions (those always decode
  through MITE), and
* the misalignment rule holds (below).

**Misalignment rule** (reverse-engineered from Section III-C): group the
body's blocks by the DSB set of their first window; for each set with
``a`` aligned and ``m`` misaligned (window-spanning) blocks, the LSD
collides — and the loop can never stream — if ``m >= 1 and a + 2m >
ways`` or ``m >= lsd_misalign_limit`` (4).  This reproduces every
aligned+misaligned combination the paper reports as defeating the LSD
({7a+1m}, {5a+2m}, {6a+2m}, {3a+3m}, {4a+3m}, {5a+3m}, and 4 misaligned
blocks alone) while letting fully-aligned chains of <= 8 blocks stream.

While streaming, an eviction of any loop window from the DSB flushes the
LSD (inclusive hierarchy, Section III-B), and delivery falls back to
DSB+MITE.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from repro.frontend.params import FrontendParams
from repro.isa.blocks import DSB_SETS, DSB_WAYS, dsb_set
from repro.isa.program import LoopProgram

__all__ = ["LsdState", "LoopStreamDetector", "misalignment_collides", "LSD_CAPACITY"]

#: Maximum uops the LSD can stream (Section III-C, Table I).
LSD_CAPACITY = 64

#: Identity of a loop body: the tuple of its blocks' base addresses.
LoopKey = tuple[int, ...]


class LsdState(enum.Enum):
    IDLE = "idle"
    STREAMING = "streaming"


def misalignment_collides(program: LoopProgram, params: FrontendParams) -> bool:
    """Apply the reverse-engineered LSD misalignment-collision rule."""
    aligned: Counter[int] = Counter()
    misaligned: Counter[int] = Counter()
    for block in program.body:
        (misaligned if block.spans_windows else aligned)[dsb_set(block.windows[0])] += 1
    for index, m in misaligned.items():
        if m >= params.lsd_misalign_limit:
            return True
        if m >= 1 and aligned[index] + 2 * m > DSB_WAYS:
            return True
    return False


@dataclass
class LsdStats:
    captures: int = 0
    flushes: int = 0
    streamed_iterations: int = 0


class LoopStreamDetector:
    """Per-hardware-thread LSD state machine."""

    def __init__(self, params: FrontendParams | None = None, enabled: bool = True) -> None:
        self.params = params or FrontendParams()
        self.enabled = enabled
        self.state = LsdState.IDLE
        self.stats = LsdStats()
        self._candidate: LoopKey | None = None
        self._qualify_streak = 0
        self._loop_windows: frozenset[int] = frozenset()

    # ------------------------------------------------------------------
    # structural qualification (independent of dynamic DSB state)
    # ------------------------------------------------------------------
    def structurally_qualifies(self, program: LoopProgram) -> bool:
        """Can this body ever stream from the LSD?"""
        return (
            self.enabled
            and program.uops_per_iteration <= LSD_CAPACITY
            and not program.lcp_instructions_per_iteration
            and not misalignment_collides(program, self.params)
        )

    # ------------------------------------------------------------------
    # dynamic protocol, driven by the engine once per loop iteration
    # ------------------------------------------------------------------
    def is_streaming(self, program: LoopProgram) -> bool:
        """True if this iteration's uops come straight from the LSD."""
        return (
            self.state is LsdState.STREAMING
            and self._candidate == program.loop_key
        )

    def observe_iteration(self, program: LoopProgram, all_from_dsb: bool) -> None:
        """Record one completed iteration of ``program``.

        ``all_from_dsb`` is True when every window of the iteration was
        serviced by the DSB (or the LSD itself).  Enough consecutive such
        iterations of a structurally-qualified loop start streaming.
        """
        key = program.loop_key
        if self.state is LsdState.STREAMING:
            if self._candidate == key:
                self.stats.streamed_iterations += 1
                return
            # A different loop arrived: the old stream ends.
            self._reset()
        if not self.structurally_qualifies(program) or not all_from_dsb:
            self._candidate = None
            self._qualify_streak = 0
            return
        if self._candidate != key:
            self._candidate = key
            self._qualify_streak = 0
        self._qualify_streak += 1
        if self._qualify_streak >= self.params.lsd_detect_iterations:
            self.state = LsdState.STREAMING
            self.stats.captures += 1
            self._loop_windows = frozenset(program.windows)

    def on_misaligned_set_touch(self, window_addr: int) -> bool:
        """Flush if a sibling thread's misaligned access collides with us.

        ``window_addr`` is the window a *different* hardware thread just
        touched via a window-spanning block; if any window of our
        streaming loop folds to the same SMT-mode DSB set, the stream
        collapses and delivery falls back to the DSB (Section IV-B).
        """
        if self.state is not LsdState.STREAMING:
            return False
        half = DSB_SETS // 2
        touched = dsb_set(window_addr) % half
        for window in self._loop_windows:
            if dsb_set(window) % half == touched:
                self.flush()
                return True
        return False

    def on_dsb_eviction(self, window_addr: int) -> bool:
        """Inclusive-hierarchy flush: a loop window left the DSB.

        Returns True if the LSD was streaming and had to flush.
        """
        if self.state is LsdState.STREAMING and window_addr in self._loop_windows:
            self.flush()
            return True
        return False

    def flush(self) -> bool:
        """Unconditional flush (loop exit, repartition, different code)."""
        was_streaming = self.state is LsdState.STREAMING
        if was_streaming:
            self.stats.flushes += 1
        self._reset()
        return was_streaming

    def _reset(self) -> None:
        self.state = LsdState.IDLE
        self._candidate = None
        self._qualify_streak = 0
        self._loop_windows = frozenset()
