"""Content-addressed on-disk cache of sweep-point metrics.

Every figure/table rerun recomputes the same grid points; this cache
makes repeat runs near-free.  Entries are keyed on the *content* of the
computation:

* the canonical type-tagged encoding of the point's coordinate values
  (see :mod:`repro.exec.canonical`) — so ``1`` and ``1.0`` never collide
  and repr drift never aliases two different points;
* the trial index and derived seed — different trials cache separately;
* the factory fingerprint — editing the experiment code invalidates its
  entries automatically.

Each entry file is one :class:`CacheEntry`, decoded strictly through
:mod:`repro.wire`.  Python's JSON round-trips finite floats via
shortest-repr exactly, so a cache hit returns **bit-identical** metrics.
Writes go through a temp file + :func:`os.replace`, so concurrent
workers (or concurrent benchmark invocations) never observe a torn
entry.

Corrupt, truncated or wrong-typed entries (killed writer, disk trouble,
manual editing) are treated as misses: the bad file is evicted so the
slot heals on the recompute, and the eviction is counted in
:attr:`ResultCache.corrupt_evictions` so
:class:`~repro.exec.base.ExecutionStats` can report it instead of a
sweep dying halfway through.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.errors import ConfigurationError
from repro.exec.canonical import POINT_KEY_VERSION, point_key
from repro.obs import get_registry
from repro.wire import Wire

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep import SweepPoint

__all__ = ["CacheEntry", "ResultCache"]

_FORMAT_VERSION = POINT_KEY_VERSION


@dataclass(frozen=True)
class CacheEntry(Wire):
    """One entry file: which point it caches, and that point's metrics."""

    version: int
    key: str
    #: ``repr`` of each coordinate value, for a human reading the file.
    values: Mapping[str, str]
    trial: int
    seed: int
    #: Any JSON value, kept as it is: an ``int`` stays an ``int``.
    metrics: Mapping[str, object]


class ResultCache:
    """Directory-backed store of per-point sweep metrics.

    Parameters
    ----------
    root:
        Cache directory; created on first use.  Safe to share between
        concurrent processes and to delete at any time.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ConfigurationError(f"cache path {self.root} is not a directory")
        self.root.mkdir(parents=True, exist_ok=True)
        # Evictions are recorded on the process metrics registry; this
        # instance's corrupt_evictions is a view (delta since creation).
        self._registry = get_registry()
        self._corrupt_counter = self._registry.counter("cache.corrupt_evictions")
        self._corrupt_base = self._corrupt_counter.value

    @property
    def corrupt_evictions(self) -> int:
        """Corrupt/truncated entries evicted by :meth:`load` so far.

        A view over the ``cache.corrupt_evictions`` counter of the
        registry that was current at construction; each eviction also
        leaves a ``cache.corrupt-evicted`` event naming the key.
        """
        return self._corrupt_counter.value - self._corrupt_base

    # ------------------------------------------------------------------
    def key(self, point: "SweepPoint", fingerprint: str) -> str:
        """Content hash identifying one (point, trial, seed, factory)."""
        return point_key(point.values, point.trial, point.seed, fingerprint)

    def _path(self, key: str) -> Path:
        # Two-level fan-out keeps directories small on big grids.
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def load(self, point: "SweepPoint", fingerprint: str) -> dict | None:
        """Return cached metrics for ``point``, or ``None`` on a miss.

        An entry that fails strict decoding, or names another slot's key
        (a file copied or moved between slots), counts as a miss; the bad
        file is evicted (so the recompute heals it) and the eviction
        recorded in :attr:`corrupt_evictions`.
        """
        key = self.key(point, fingerprint)
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            return None  # absent (or unreadable): a plain miss
        except UnicodeDecodeError:
            return self._evict_corrupt(path, key)  # garbage bytes on disk
        try:
            entry = CacheEntry.from_json(text)
        except ConfigurationError:
            return self._evict_corrupt(path, key)
        if entry.key != key:
            return self._evict_corrupt(path, key)
        return dict(entry.metrics)

    def _evict_corrupt(self, path: Path, key: str) -> None:
        """Drop one unparseable entry; count it and log *which* key.

        The key matters operationally — it names exactly which (point,
        trial, seed, factory) slot healed — so the eviction is recorded
        as a structured registry event, not just an anonymous count.
        """
        try:
            path.unlink()
        except OSError:  # pragma: no cover - raced with another evictor
            pass
        self._corrupt_counter.inc()
        self._registry.event(
            "cache.corrupt-evicted", key=key, path=str(path)
        )
        return None

    def store(
        self, point: "SweepPoint", fingerprint: str, metrics: Mapping[str, float]
    ) -> Path:
        """Persist one point's metrics; atomic against concurrent readers."""
        key = self.key(point, fingerprint)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = CacheEntry(
            version=_FORMAT_VERSION,
            key=key,
            values={name: repr(value) for name, value in point.values.items()},
            trial=point.trial,
            seed=point.seed,
            metrics=metrics,
        )
        # Not the canonical to_json: metric insertion order is part of
        # the contract (tables list metrics in factory-return order, hit
        # or miss), and so are the entry bytes.
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(entry.to_dict()))
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for entry in self.root.glob("*/*.json"):
            entry.unlink(missing_ok=True)
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache(root={str(self.root)!r}, entries={len(self)})"
