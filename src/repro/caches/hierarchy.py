"""A small three-level memory hierarchy for the Spectre baseline channels.

Models L1D -> L2 -> LLC -> DRAM with inclusive fills and per-level access
latencies, enough to give Flush+Reload its timing signal (DRAM access ~10x
an L1 hit) and to measure the L1 miss rates Table VII compares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.caches.presets import l1d_cache, l2_cache, llc_cache

__all__ = ["MemoryHierarchy", "AccessResult", "HierarchyLatencies"]


@dataclass(frozen=True)
class HierarchyLatencies:
    """Load-to-use latencies per hit level (cycles; Skylake-typical)."""

    l1: float = 4.0
    l2: float = 14.0
    llc: float = 44.0
    dram: float = 210.0


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one data access."""

    level: str  # "L1", "L2", "LLC", "DRAM"
    latency: float

    @property
    def l1_hit(self) -> bool:
        return self.level == "L1"


class MemoryHierarchy:
    """Inclusive L1D/L2/LLC hierarchy with flush support."""

    def __init__(self, latencies: HierarchyLatencies | None = None) -> None:
        self.latencies = latencies or HierarchyLatencies()
        self.l1 = l1d_cache()
        self.l2 = l2_cache()
        self.llc = llc_cache()

    def load(self, addr: int) -> AccessResult:
        """Perform a load; fills all levels on the way in."""
        if self.l1.access(addr):
            return AccessResult("L1", self.latencies.l1)
        if self.l2.access(addr):
            return AccessResult("L2", self.latencies.l2)
        if self.llc.access(addr):
            return AccessResult("LLC", self.latencies.llc)
        return AccessResult("DRAM", self.latencies.dram)

    def load_many(self, addrs) -> np.ndarray:
        """Load every address of ``addrs`` in order; per-load latencies.

        Exactly equivalent to ``[self.load(a).latency for a in addrs]``,
        including every level's LRU state and stats.  Levels are
        independent caches, so each one takes the previous level's
        misses, in their original order, as a single
        :meth:`~repro.caches.sa_cache.SetAssociativeCache.access_many`
        batch.  Once no load is pending, the deeper levels are not
        consulted.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        hit = self.l1.access_many(addrs)
        if hit.all():
            return np.full(len(addrs), self.latencies.l1)
        latencies = np.where(hit, self.latencies.l1, self.latencies.dram)
        pending = np.flatnonzero(~hit)
        for cache, latency in ((self.l2, self.latencies.l2), (self.llc, self.latencies.llc)):
            hit = cache.access_many(addrs[pending])
            latencies[pending[hit]] = latency
            pending = pending[~hit]
            if len(pending) == 0:
                break
        return latencies

    def flush_line(self, addr: int) -> None:
        """``clflush``: evict the line from every level."""
        self.l1.flush_line(addr)
        self.l2.flush_line(addr)
        self.llc.flush_line(addr)

    def probe_latency(self, addr: int) -> float:
        """Latency a load *would* see, without changing state.

        Used by receivers that time accesses: the subsequent real access
        should still go through :meth:`load` to update state.
        """
        if self.l1.probe(addr):
            return self.latencies.l1
        if self.l2.probe(addr):
            return self.latencies.l2
        if self.llc.probe(addr):
            return self.latencies.llc
        return self.latencies.dram

    @property
    def l1_miss_rate(self) -> float:
        return self.l1.stats.miss_rate
