"""Decoded Stream Buffer (DSB, micro-op cache) model.

Geometry follows Table I: 32 sets x 8 ways, each line holding the uops of
one 32-byte instruction window (up to 6 uops per line; windows decoding to
more uops occupy multiple ways, up to 3, beyond which the window is not
cacheable and always decodes through MITE).

Indexing (Section III-A2):

* single-thread mode: set index is ``addr[9:5]`` — 32 sets;
* SMT mode (both hardware threads active): the paper's Figure 2 shows the
  DSB is *set partitioned*: each thread sees 16 sets, and a thread's
  addresses whose ``addr[9:5]`` values differ by 16 collide with each
  other.  We model this by folding the index to ``addr[9:5] mod 16`` for
  both threads while SMT is active.  Lines are virtually tagged per
  thread (no cross-thread sharing), and the two threads' lines compete
  for ways within the folded sets.  This single mechanism reproduces both
  experimental observations in the paper: the mod-16 self-conflicts of
  Figure 2 *and* the cross-thread evictions that drive the MT
  eviction-based attack of Section IV-A.

Replacement is LRU within a set.  An insertion returns the lines it
evicted, oldest first; the engine flushes the LSDs streaming them (the
DSB is inclusive of the LSD, Section III).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.frontend.params import FrontendParams
from repro.isa.blocks import DSB_LINE_UOPS, DSB_SETS, DSB_WAYS, WINDOW_BYTES, dsb_set

__all__ = ["DecodedStreamBuffer", "DsbLine", "DsbStats"]

#: A DSB line is identified by (hardware thread, window-aligned address).
LineKey = tuple[int, int]

#: Windows needing more than this many ways are never cached (stay MITE).
MAX_WAYS_PER_WINDOW = 3


class DsbLine(NamedTuple):
    """One cached instruction window (immutable, so a set's contents
    hash without a Python call per line).

    Attributes
    ----------
    uops:
        Total uops of the window's instructions.
    ways:
        Ways this window occupies (``ceil(uops / 6)``).
    """

    uops: int
    ways: int


@dataclass
class DsbStats:
    """Aggregate DSB event counters (per DSB instance)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    uncacheable_lookups: int = 0

    def snapshot(self) -> "DsbStats":
        return DsbStats(
            self.hits,
            self.misses,
            self.insertions,
            self.evictions,
            self.uncacheable_lookups,
        )

    def delta(self, earlier: "DsbStats") -> "DsbStats":
        return DsbStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.insertions - earlier.insertions,
            self.evictions - earlier.evictions,
            self.uncacheable_lookups - earlier.uncacheable_lookups,
        )


class DecodedStreamBuffer:
    """The micro-op cache shared by a core's hardware threads."""

    def __init__(self, params: FrontendParams | None = None) -> None:
        self.params = params or FrontendParams()
        # One OrderedDict per physical set: key -> DsbLine, LRU order
        # (oldest first).  Capacity is counted in ways, not entries.
        self._sets: list[OrderedDict[LineKey, DsbLine]] = [
            OrderedDict() for _ in range(DSB_SETS)
        ]
        # Running ways-in-use per set: every mutation of ``_sets`` keeps
        # ``_ways[i] == sum(line.ways for line in _sets[i].values())``.
        self._ways: list[int] = [0] * DSB_SETS
        self.stats = DsbStats()

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def effective_index(
        self, window_addr: int, smt_active: bool, thread: int = 0
    ) -> int:
        """Physical set index for ``window_addr`` under the current mode.

        With ``smt_isolation`` (a modelled defense) each thread's folded
        index lands in its own exclusive half, so the threads can never
        compete for ways.
        """
        if window_addr % WINDOW_BYTES:
            raise ConfigurationError(
                f"address {window_addr:#x} is not window-aligned"
            )
        index = dsb_set(window_addr)
        if smt_active and self.params.smt_partitioning:
            index %= DSB_SETS // 2
            if self.params.smt_isolation:
                index += (thread % 2) * (DSB_SETS // 2)
        return index

    def ways_for_uops(self, uops: int) -> int:
        """Ways needed to cache a window of ``uops`` uops (0 = uncacheable)."""
        if uops <= 0:
            raise ConfigurationError(f"window uop count must be positive, got {uops}")
        ways = -(-uops // DSB_LINE_UOPS)  # ceil division
        return ways if ways <= MAX_WAYS_PER_WINDOW else 0

    # ------------------------------------------------------------------
    # cache operations
    # ------------------------------------------------------------------
    def lookup(self, thread: int, window_addr: int, smt_active: bool) -> bool:
        """Probe for a window; updates LRU on hit."""
        return self.lookup_at(
            self.effective_index(window_addr, smt_active, thread), (thread, window_addr)
        )

    def lookup_at(self, index: int, key: LineKey) -> bool:
        """:meth:`lookup` with the set index already resolved."""
        entry_set = self._sets[index]
        if key in entry_set:
            entry_set.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def resident(self, thread: int, window_addr: int, smt_active: bool) -> bool:
        """Probe without touching LRU state or statistics."""
        entry_set = self._sets[self.effective_index(window_addr, smt_active, thread)]
        return (thread, window_addr) in entry_set

    def insert(
        self, thread: int, window_addr: int, uops: int, smt_active: bool
    ) -> list[LineKey]:
        """Insert a decoded window; returns the evicted line keys, oldest
        first.

        Uncacheable windows (needing more than 3 ways) are ignored and
        counted in ``stats.uncacheable_lookups``.
        """
        ways = self.ways_for_uops(uops)
        # An uncacheable window never reaches a set, so it needs no index.
        index = self.effective_index(window_addr, smt_active, thread) if ways else 0
        return self.insert_at(index, (thread, window_addr), uops, ways)

    def insert_at(
        self, index: int, key: LineKey, uops: int, ways: int
    ) -> list[LineKey]:
        """:meth:`insert` with the set index and ``ways_for_uops(uops)``
        already resolved (``ways == 0`` marks an uncacheable window)."""
        if not ways:
            self.stats.uncacheable_lookups += 1
            return []
        entry_set = self._sets[index]
        if key in entry_set:
            entry_set.move_to_end(key)
            return []
        evicted: list[LineKey] = []
        used = self._ways
        while used[index] + ways > DSB_WAYS:
            victim_key = next(iter(entry_set))  # LRU: the oldest entry
            used[index] -= entry_set.pop(victim_key).ways
            evicted.append(victim_key)
            self.stats.evictions += 1
        entry_set[key] = DsbLine(uops=uops, ways=ways)
        used[index] += ways
        self.stats.insertions += 1
        return evicted

    def invalidate(self, thread: int, window_addr: int) -> bool:
        """Drop a specific line wherever it currently resides."""
        key = (thread, window_addr)
        for index, entry_set in enumerate(self._sets):
            line = entry_set.pop(key, None)
            if line is not None:
                self._ways[index] -= line.ways
                return True
        return False

    def flush_thread(self, thread: int) -> int:
        """Invalidate every line belonging to ``thread``; returns the count."""
        dropped = 0
        for index, entry_set in enumerate(self._sets):
            victims = [key for key in entry_set if key[0] == thread]
            for key in victims:
                self._ways[index] -= entry_set.pop(key).ways
                dropped += 1
        return dropped

    def flush(self) -> None:
        """Invalidate the whole DSB (used on repartition in strict mode)."""
        for entry_set in self._sets:
            entry_set.clear()
        self._ways[:] = [0] * len(self._ways)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Total ways currently in use across all sets."""
        return sum(self._ways)

    def resident_windows(self, thread: int) -> set[int]:
        """All window addresses currently cached for ``thread``."""
        return {
            key[1]
            for entry_set in self._sets
            for key in entry_set
            if key[0] == thread
        }
