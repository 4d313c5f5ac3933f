"""Cache geometry presets for the Table I machines.

All four CPUs share the same L1 geometry: 32 KB, 8-way, 64-byte lines,
64 sets, for both instruction and data caches.
"""

from __future__ import annotations

from repro.caches.sa_cache import SetAssociativeCache

__all__ = ["l1i_cache", "l1d_cache", "l2_cache", "llc_cache"]

#: L1I geometry (SDM): 64 sets x 8 ways x 64 B lines.
L1I_SETS = 64
L1I_WAYS = 8
L1I_LINE_BYTES = 64


def l1i_cache() -> SetAssociativeCache:
    """L1 instruction cache: 32 KB, 8-way, 64 B lines (Table I)."""
    return SetAssociativeCache(
        sets=L1I_SETS, ways=L1I_WAYS, line_bytes=L1I_LINE_BYTES, name="L1I"
    )


def l1d_cache() -> SetAssociativeCache:
    """L1 data cache: 32 KB, 8-way, 64 B lines (Table I)."""
    return SetAssociativeCache(sets=64, ways=8, line_bytes=64, name="L1D")


def l2_cache() -> SetAssociativeCache:
    """Unified L2: 1 MB, 16-way, 64 B lines (Skylake-server class)."""
    return SetAssociativeCache(sets=1024, ways=16, line_bytes=64, name="L2")


def llc_cache() -> SetAssociativeCache:
    """Last-level cache slice: 1.375 MB, 11-way, 64 B lines."""
    return SetAssociativeCache(sets=2048, ways=11, line_bytes=64, name="LLC")
