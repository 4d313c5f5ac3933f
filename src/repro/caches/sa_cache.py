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

    #: Deferred all-hit accesses are applied once there are more than
    #: this many per line the cache holds, so the backlog stays bounded.
    BACKLOG_PER_LINE = 8
    #: Slots of the residency proof: one per line, up to this many.
    MAX_PROOF_SLOTS = 1024

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
        # Residency proof: a direct-mapped table, a power of two of at
        # least two slots.  Slot ``line & mask`` holds a line number
        # checked resident; an empty slot holds ``~slot``, which maps to
        # another slot, so no line number matches it.  An eviction or
        # flush empties the slot of the line it takes.
        slots = min(self.MAX_PROOF_SLOTS, max(2, 1 << (sets * ways - 1).bit_length()))
        self._proof = ~np.arange(slots, dtype=np.int64)
        self._proof_mask = slots - 1
        # Line numbers of deferred all-hit batches, in access order, whose
        # MRU moves are still to be applied (see access_many).
        self._backlog: list[np.ndarray] = []
        self._backlog_size = 0
        self._backlog_limit = self.BACKLOG_PER_LINE * sets * ways

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
        if self._backlog:
            self._settle()
        line_number = addr // self.line_bytes
        line = line_number * self.line_bytes
        entry_set = self._data[line_number % self.sets]
        if line in entry_set:
            entry_set.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(entry_set) >= self.ways:
            victim, _ = entry_set.popitem(last=False)
            self._unprove(victim // self.line_bytes)
            self.stats.evictions += 1
        entry_set[line] = None
        return False

    def hit_resident(self, addrs, n: int) -> bool:
        """Apply ``n`` accesses that touch only the lines of ``addrs``,
        distinct addresses in order of their last access, if all those
        lines are resident; otherwise change nothing and return False.

        Accesses to resident lines all hit and evict nothing, so their
        net effect is ``n`` hits and each line moved to MRU in order of
        its last access.  Two addresses in one line move it twice, and
        the later move, that of its last access, is the one that counts.
        """
        if self._backlog:
            self._settle()
        data, sets, line_bytes = self._data, self.sets, self.line_bytes
        resident = []
        for addr in addrs:
            line_number = addr // line_bytes
            entry_set = data[line_number % sets]
            line = line_number * line_bytes
            if line not in entry_set:
                return False
            resident.append((entry_set, line))
        for entry_set, line in resident:
            entry_set.move_to_end(line)
        self.stats.hits += n
        return True

    def access_many(self, addrs) -> np.ndarray:
        """Access every address of ``addrs`` in order; per-address hits.

        Exactly equivalent to ``[self.access(a) for a in addrs]``: the
        returned bool array, every set's LRU order and all of ``stats``
        end up the same.

        An all-hit batch, whose every line is resident, misses and
        evicts nothing, so it only moves its lines to MRU.  The cache
        keeps a residency proof (the line numbers it has checked
        resident, less any line evicted or flushed since) and checks
        each batch's lines that are not in it.  If all are resident, the
        batch counts its hits and joins a backlog of deferred batches;
        :meth:`_settle` applies the backlog's MRU moves in one pass
        before anything reads or changes LRU order, and once it holds
        more than :attr:`BACKLOG_PER_LINE` accesses per cache line.
        Residency and occupancy do not depend on LRU order, so
        :meth:`probe` and :meth:`occupancy` never need it applied.

        Other batches go through a kernel.  When no set receives more
        distinct lines than it has ways, a line the batch has touched is
        never the LRU victim, so only its first occurrence can miss.  The
        batch then reduces to one pass over the distinct lines in
        first-occurrence order (hit: move to MRU; miss: evict the LRU if
        full, insert), followed by a move to MRU in last-occurrence
        order.  A batch that over-subscribes any set falls back to
        :meth:`access` per address.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        n = len(addrs)
        hits = np.ones(n, dtype=bool)
        if n == 0:
            return hits
        line_numbers = addrs // self.line_bytes
        if self._proven(line_numbers):
            self._backlog.append(line_numbers)
            self._backlog_size += n
            if self._backlog_size > self._backlog_limit:
                self._settle()
            self.stats.hits += n
            return hits
        if self._backlog:
            self._settle()
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
                victim, _ = entry_set.popitem(last=False)
                self._unprove(victim // self.line_bytes)
                self.stats.evictions += 1
            entry_set[line] = None
        self._move_to_mru(line_numbers[last])
        # No batch line was evicted, so every one is now resident.
        self._proof[distinct & self._proof_mask] = distinct
        hits[first[missed]] = False
        self.stats.misses += len(missed)
        self.stats.hits += n - len(missed)
        return hits

    def _proven(self, line_numbers: np.ndarray) -> bool:
        """Whether every line of ``line_numbers`` is resident.

        Only lines missing from the proof are looked up; if all of them
        are resident, they join the proof.
        """
        proof, mask = self._proof, self._proof_mask
        stale = proof[line_numbers & mask] != line_numbers
        if not stale.any():
            return True
        unproven = line_numbers[stale]
        data, sets, line_bytes = self._data, self.sets, self.line_bytes
        if not all(line * line_bytes in data[line % sets] for line in set(unproven.tolist())):
            return False
        proof[unproven & mask] = unproven
        return True

    def _settle(self) -> None:
        """Apply the backlog: one all-hit pass over every deferred access.

        All deferred accesses hit, so their net effect on LRU order is
        each distinct line moved to MRU in order of its last access.
        """
        backlog = self._backlog
        line_numbers = np.concatenate(backlog) if len(backlog) > 1 else backlog[0]
        backlog.clear()
        self._backlog_size = 0
        n = len(line_numbers)
        low = int(line_numbers.min())
        span = int(line_numbers.max()) - low + 1
        if span <= 4 * n:
            # Nearby lines get one slot per line of their span;
            # ``maximum.at`` leaves each slot at that line's last index.
            slots = np.full(span, -1, dtype=np.int64)
            np.maximum.at(slots, line_numbers - low, np.arange(n))
            recent = line_numbers[np.sort(slots[slots >= 0])]
        else:
            # Reversed, a line's first occurrence is its last access.
            distinct, index = np.unique(line_numbers[::-1], return_index=True)
            recent = distinct[np.argsort(-index)]
        self._move_to_mru(recent)

    def _move_to_mru(self, line_numbers: np.ndarray) -> None:
        """Move resident lines to MRU of their sets, in the given order."""
        data = self._data
        for index, line in zip(
            (line_numbers % self.sets).tolist(), (line_numbers * self.line_bytes).tolist()
        ):
            data[index].move_to_end(line)

    def _unprove(self, line_number: int) -> None:
        """Empty the proof slot of a line leaving the cache."""
        slot = line_number & self._proof_mask
        self._proof[slot] = ~slot

    def probe(self, addr: int) -> bool:
        """Check residency without filling or touching LRU state."""
        line_number = addr // self.line_bytes
        return line_number * self.line_bytes in self._data[line_number % self.sets]

    def flush_line(self, addr: int) -> bool:
        """``clflush``: evict one line if present."""
        if self._backlog:
            self._settle()
        line_number = addr // self.line_bytes
        line = line_number * self.line_bytes
        entry_set = self._data[line_number % self.sets]
        if line in entry_set:
            del entry_set[line]
            self._unprove(line_number)
            self.stats.flushes += 1
            return True
        return False

    def flush_all(self) -> None:
        # Nothing stays resident, so deferred MRU moves have no effect.
        self._backlog.clear()
        self._backlog_size = 0
        self._proof = ~np.arange(len(self._proof), dtype=np.int64)
        for entry_set in self._data:
            entry_set.clear()
        self.stats.flushes += 1

    # ------------------------------------------------------------------
    def lru_stack(self, set_index: int) -> list[int]:
        """Line addresses in set ``set_index``, LRU-oldest first.

        Exposed for the LRU-state covert channel baseline: the *ordering*
        leaks victim activity even when all accesses hit.
        """
        if self._backlog:
            self._settle()
        return list(self._data[set_index])

    def occupancy(self, set_index: int) -> int:
        return len(self._data[set_index])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SetAssociativeCache({self.name}: {self.sets}x{self.ways}, "
            f"{self.line_bytes}B lines)"
        )
