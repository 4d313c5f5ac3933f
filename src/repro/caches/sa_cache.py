"""Generic set-associative cache with true-LRU replacement.

Used for both the L1 instruction cache (whose *non*-interference the
frontend attacks depend on) and the L1 data cache (whose LRU metadata the
Table VII baseline "LRU channel" exploits — hits reorder the LRU stack
without causing misses, and that ordering is observable via a later
conflict pattern).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["SetAssociativeCache", "CacheStats"]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions, self.flushes)

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.evictions - earlier.evictions,
            self.flushes - earlier.flushes,
        )


class SetAssociativeCache:
    """A physically-indexed set-associative cache with LRU replacement.

    Parameters
    ----------
    sets / ways / line_bytes:
        Geometry.  ``sets`` must be a power of two.
    name:
        Used in reprs and error messages.
    """

    def __init__(self, sets: int, ways: int, line_bytes: int, name: str = "cache") -> None:
        if sets < 1 or sets & (sets - 1):
            raise ConfigurationError(f"{name}: sets must be a power of two, got {sets}")
        if ways < 1:
            raise ConfigurationError(f"{name}: ways must be >= 1, got {ways}")
        if line_bytes < 1 or line_bytes & (line_bytes - 1):
            raise ConfigurationError(
                f"{name}: line_bytes must be a power of two, got {line_bytes}"
            )
        self.sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.name = name
        # Per set: line_addr -> None, ordered LRU-oldest first.
        self._data: list[OrderedDict[int, None]] = [OrderedDict() for _ in range(sets)]
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def line_addr(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def set_index(self, addr: int) -> int:
        return (addr // self.line_bytes) % self.sets

    @property
    def size_bytes(self) -> int:
        return self.sets * self.ways * self.line_bytes

    # ------------------------------------------------------------------
    def access(self, addr: int) -> bool:
        """Access ``addr``; fill on miss.  Returns True on hit."""
        line = self.line_addr(addr)
        entry_set = self._data[self.set_index(addr)]
        if line in entry_set:
            entry_set.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(entry_set) >= self.ways:
            entry_set.popitem(last=False)
            self.stats.evictions += 1
        entry_set[line] = None
        return False

    def access_many(self, addrs) -> np.ndarray:
        """Access every address of ``addrs`` in order; per-address hits.

        Exactly equivalent to ``[self.access(a) for a in addrs]``: the
        returned bool array, every set's LRU order and all of ``stats``
        end up the same.  When no set receives more distinct lines than
        it has ways, a line the batch has touched is never the LRU
        victim, so only its first occurrence can miss.  The batch then
        reduces to one pass over the distinct lines in first-occurrence
        order (hit: move to MRU; miss: evict the LRU if full, insert),
        followed by a move to MRU in last-occurrence order.  A batch
        that over-subscribes any set falls back to :meth:`access` per
        address.

        An all-hit batch, whose every distinct line is already resident,
        needs none of this: nothing misses or is evicted, so the batch
        only moves its lines to MRU in last-occurrence order.  That check
        is made on batches whose lines span at most four times the batch
        length; other batches go straight to the kernel.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        n = len(addrs)
        hits = np.ones(n, dtype=bool)
        if n == 0:
            return hits
        line_numbers = addrs // self.line_bytes
        low = int(line_numbers.min())
        span = int(line_numbers.max()) - low + 1
        if span <= 4 * n:
            # A batch of nearby lines gets one slot per line of its span;
            # ``maximum.at`` leaves each slot at that line's last index.
            slots = np.full(span, -1, dtype=np.int64)
            np.maximum.at(slots, line_numbers - low, np.arange(n))
            recent = line_numbers[np.sort(slots[slots >= 0])]
            # Each distinct line's set index and line address, in
            # last-occurrence order: the order the batch leaves them at MRU.
            indices = (recent % self.sets).tolist()
            lines = (recent * self.line_bytes).tolist()
            data = self._data
            if all(line in data[index] for index, line in zip(indices, lines)):
                for index, line in zip(indices, lines):
                    data[index].move_to_end(line)
                self.stats.hits += n
                return hits
        # A stable sort groups each line's occurrences in access order:
        # a group's head is the line's first occurrence, its tail the last.
        order = np.argsort(line_numbers, kind="stable")
        grouped = line_numbers[order]
        heads = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
        first = np.sort(order[heads])
        last = np.sort(order[np.concatenate((heads[1:], [n])) - 1])
        distinct = line_numbers[first]
        set_indices = distinct % self.sets
        if np.bincount(set_indices).max() > self.ways:
            return np.fromiter(map(self.access, addrs.tolist()), dtype=bool, count=n)
        missed = []
        for k, (index, line) in enumerate(
            zip(set_indices.tolist(), (distinct * self.line_bytes).tolist())
        ):
            entry_set = self._data[index]
            if line in entry_set:
                entry_set.move_to_end(line)
                continue
            missed.append(k)
            if len(entry_set) >= self.ways:
                entry_set.popitem(last=False)
                self.stats.evictions += 1
            entry_set[line] = None
        recent = line_numbers[last]
        for index, line in zip(
            (recent % self.sets).tolist(), (recent * self.line_bytes).tolist()
        ):
            self._data[index].move_to_end(line)
        hits[first[missed]] = False
        self.stats.misses += len(missed)
        self.stats.hits += n - len(missed)
        return hits

    def probe(self, addr: int) -> bool:
        """Check residency without filling or touching LRU state."""
        line = self.line_addr(addr)
        return line in self._data[self.set_index(addr)]

    def flush_line(self, addr: int) -> bool:
        """``clflush``: evict one line if present."""
        line = self.line_addr(addr)
        entry_set = self._data[self.set_index(addr)]
        if line in entry_set:
            del entry_set[line]
            self.stats.flushes += 1
            return True
        return False

    def flush_all(self) -> None:
        for entry_set in self._data:
            entry_set.clear()
        self.stats.flushes += 1

    # ------------------------------------------------------------------
    def lru_stack(self, set_index: int) -> list[int]:
        """Line addresses in set ``set_index``, LRU-oldest first.

        Exposed for the LRU-state covert channel baseline: the *ordering*
        leaks victim activity even when all accesses hit.
        """
        return list(self._data[set_index])

    def occupancy(self, set_index: int) -> int:
        return len(self._data[set_index])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SetAssociativeCache({self.name}: {self.sets}x{self.ways}, "
            f"{self.line_bytes}B lines)"
        )
