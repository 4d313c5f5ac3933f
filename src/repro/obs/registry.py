"""Process-local metrics registry: counters, gauges, histograms, events.

The registry is the one place the executor, service, and cluster layers
record what they are doing — ``ExecutionStats`` and the coordinator's
fault-tolerance tallies are *views* over these instruments, not parallel
bookkeeping.  Three design rules keep it compatible with the repo's
determinism story:

* **fixed identity** — an instrument is ``(name, sorted tags)``; tag
  keys and values are canonicalised to strings at creation, so the same
  logical instrument is the same object regardless of call-site quirks;
* **deterministic serialization** — :meth:`MetricsRegistry.snapshot`
  sorts instruments by identity and histograms use *fixed* bucket
  edges, so a snapshot's bytes are independent of insertion order and
  ``PYTHONHASHSEED``;
* **injectable time** — every duration flows through the registry's
  ``clock`` (default: the host monotonic clock via the
  :mod:`repro.obs.clock` shim).  Inject a
  :class:`~repro.obs.clock.ManualClock` and two runs of the same seeded
  sweep snapshot byte-identically.

Instruments are cheap (a lock, a float or a short list) and the
increment paths are a few attribute accesses, so hot loops — per-point
executor bookkeeping, per-result cluster merges — use them directly.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.obs.clock import Clock, host_clock
from repro.obs.spans import Span, SpanRecord

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "EventRecord",
    "MetricsRegistry",
    "DEFAULT_LATENCY_EDGES",
    "get_registry",
    "merge_snapshot",
    "set_registry",
    "use_registry",
]

#: Fixed histogram bucket edges for latencies, in seconds.  Fixed (not
#: adaptive) so two runs of the same workload always serialize the same
#: bucket layout — determinism beats resolution here.
DEFAULT_LATENCY_EDGES: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Bounded trace/event buffers: big enough for a full tier-1 run's
#: spans, small enough that a long-lived service never grows unbounded.
_BUFFER_LIMIT = 4096


def _canonical_tags(tags: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    """Tag identity: sorted ``(key, value)`` string pairs."""
    return tuple(sorted((str(key), str(value)) for key, value in tags.items()))


class _Instrument:
    """Shared identity plumbing for counters, gauges, and histograms."""

    kind = "instrument"

    def __init__(self, name: str, tags: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.tags = tags
        self._lock = threading.Lock()

    @property
    def labels(self) -> dict[str, str]:
        return dict(self.tags)

    def snapshot(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, tags={self.labels!r})"


class Counter(_Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, tags: tuple[tuple[str, str], ...]) -> None:
        super().__init__(name, tags)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self._value += int(amount)

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "tags": self.labels,
            "value": self._value,
        }


class Gauge(_Instrument):
    """A value that goes up and down (queue depth, live workers)."""

    kind = "gauge"

    def __init__(self, name: str, tags: tuple[tuple[str, str], ...]) -> None:
        super().__init__(name, tags)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "tags": self.labels,
            "value": self._value,
        }


class Histogram(_Instrument):
    """Distribution over fixed bucket edges (plus count/sum/min/max).

    ``buckets[i]`` counts observations ``<= edges[i]``; the final bucket
    is the overflow.  Edges are fixed at creation so snapshots of the
    same workload always share a layout.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        tags: tuple[tuple[str, str], ...],
        edges: Sequence[float],
    ) -> None:
        super().__init__(name, tags)
        if not edges or list(edges) != sorted(float(e) for e in edges):
            raise ConfigurationError(
                f"histogram {name!r} needs ascending bucket edges, got {edges!r}"
            )
        self.edges = tuple(float(e) for e in edges)
        self._buckets = [0] * (len(self.edges) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            # First edge with ``value <= edge``; NaN compares false with
            # every edge, so it belongs in the overflow slot.
            slot = bisect_left(self.edges, value) if value == value else len(self.edges)
            self._buckets[slot] += 1
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "tags": self.labels,
            "edges": list(self.edges),
            "buckets": list(self._buckets),
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
        }


@dataclass(frozen=True)
class EventRecord:
    """One structured occurrence (e.g. which cache key got evicted)."""

    name: str
    fields: Mapping[str, object]

    def to_dict(self) -> dict:
        return {"event": self.name, **dict(self.fields)}


class MetricsRegistry:
    """All of one process's instruments, spans, and structured events.

    Parameters
    ----------
    clock:
        Monotonic time source for spans and any caller that wants its
        timings coherent with the registry's (the executors do).
        Defaults to the host clock from the :mod:`repro.obs.clock` shim;
        tests inject a :class:`~repro.obs.clock.ManualClock`.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock: Clock = clock if clock is not None else host_clock()
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, tuple[tuple[str, str], ...]], _Instrument] = {}
        self._spans: deque[SpanRecord] = deque(maxlen=_BUFFER_LIMIT)
        self._events: deque[EventRecord] = deque(maxlen=_BUFFER_LIMIT)

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    def counter(self, name: str, **tags) -> Counter:
        return self._get(Counter, name, tags)

    def gauge(self, name: str, **tags) -> Gauge:
        return self._get(Gauge, name, tags)

    def histogram(
        self, name: str, edges: Sequence[float] | None = None, **tags
    ) -> Histogram:
        return self._get(Histogram, name, tags, edges=edges)

    def _get(self, cls, name: str, tags: Mapping[str, object], edges=None):
        key = (str(name), _canonical_tags(tags))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                if cls is Histogram:
                    instrument = Histogram(
                        key[0], key[1],
                        edges if edges is not None else DEFAULT_LATENCY_EDGES,
                    )
                else:
                    instrument = cls(key[0], key[1])
                self._instruments[key] = instrument
        if not isinstance(instrument, cls):
            raise ConfigurationError(
                f"metric {name!r} with tags {dict(tags)!r} already registered "
                f"as a {instrument.kind}, not a {cls.kind}"
            )
        if (
            cls is Histogram
            and edges is not None
            and tuple(float(e) for e in edges) != instrument.edges
        ):
            raise ConfigurationError(
                f"histogram {name!r} already registered with edges "
                f"{instrument.edges}; bucket layouts are fixed"
            )
        return instrument

    # ------------------------------------------------------------------
    # spans and events
    # ------------------------------------------------------------------
    def begin_span(self, name: str, **tags) -> Span:
        """Open a span manually (for intervals crossing callbacks)."""
        return Span(self, str(name), dict(_canonical_tags(tags)), self.clock())

    def span(self, name: str, **tags) -> Span:
        """Context-manager form: ``with registry.span("job.run"): ...``."""
        return self.begin_span(name, **tags)

    def _record_span(self, record: SpanRecord) -> None:
        # Called by Span.end(): aggregate into the same-named histogram,
        # keep the raw record for the JSONL trace exporter.
        self.histogram(record.name, **record.tags).observe(record.elapsed_s)
        with self._lock:
            self._spans.append(record)

    def event(self, name: str, **fields) -> EventRecord:
        """Record one structured occurrence in the bounded event buffer."""
        record = EventRecord(name=str(name), fields=dict(fields))
        with self._lock:
            self._events.append(record)
        return record

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        with self._lock:
            return tuple(self._spans)

    @property
    def events(self) -> tuple[EventRecord, ...]:
        with self._lock:
            return tuple(self._events)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def instruments(self) -> list[_Instrument]:
        """Every registered instrument, in deterministic identity order."""
        with self._lock:
            keyed = list(self._instruments.items())
        keyed.sort(key=lambda item: item[0])
        return [instrument for _key, instrument in keyed]

    def snapshot(self) -> dict:
        """All instrument states, deterministically ordered and JSON-safe.

        Spans and events are *not* included — they carry per-occurrence
        timestamps; use the JSONL exporter for traces.
        """
        return {"metrics": [i.snapshot() for i in self.instruments()]}

    def reset(self) -> None:
        """Drop every instrument, span, and event (test isolation)."""
        with self._lock:
            self._instruments.clear()
            self._spans.clear()
            self._events.clear()

    def __len__(self) -> int:
        return len(self._instruments)


# ----------------------------------------------------------------------
# cross-process merge
# ----------------------------------------------------------------------
def merge_snapshot(
    registry: MetricsRegistry,
    snapshot: Mapping[str, object],
    baseline: Mapping[tuple, dict] | None = None,
) -> dict[tuple, dict]:
    """Fold one remote :meth:`MetricsRegistry.snapshot` into ``registry``.

    The cluster coordinator uses this to turn per-worker registries
    into fleet totals: workers ship snapshots in ``shard-done`` and
    ``goodbye`` frames, and each is merged *delta-style* against the
    ``baseline`` returned by the previous merge for that source — a
    counter contributes ``value - baseline_value``, histograms the
    bucket-wise difference, so re-shipping cumulative state never
    double-counts.  A value *below* its baseline means the source
    restarted from zero; the whole value is then treated as fresh.
    Gauges are last-writer-wins (they describe the source's *current*
    state).  Returns the new baseline to pass next time.

    Malformed entries are skipped — a snapshot arrives over the wire
    and must never crash the coordinator.
    """
    merged: dict[tuple, dict] = {}
    entries = snapshot.get("metrics") if isinstance(snapshot, Mapping) else None
    if not isinstance(entries, list):
        return merged
    baseline = baseline or {}
    for entry in entries:
        if not isinstance(entry, Mapping):
            continue
        name = entry.get("name")
        tags = entry.get("tags")
        kind = entry.get("type")
        if not isinstance(name, str) or not isinstance(tags, Mapping):
            continue
        key = (name, _canonical_tags(tags), kind)
        previous = baseline.get(key)
        try:
            if kind == "counter":
                value = int(entry.get("value", 0))
                prior = int(previous.get("value", 0)) if previous else 0
                delta = value - prior if value >= prior else value
                if delta > 0:
                    registry.counter(name, **tags).inc(delta)
                merged[key] = {"value": value}
            elif kind == "gauge":
                registry.gauge(name, **tags).set(float(entry.get("value", 0.0)))
                merged[key] = {"value": entry.get("value", 0.0)}
            elif kind == "histogram":
                merged[key] = _merge_histogram(registry, entry, previous)
        except (ConfigurationError, TypeError, ValueError):
            continue  # identity clash or junk values: skip, don't crash
    return merged


def _merge_histogram(
    registry: MetricsRegistry,
    entry: Mapping[str, object],
    previous: Mapping[str, object] | None,
) -> dict:
    """Bucket-wise delta merge of one remote histogram snapshot."""
    name = str(entry.get("name"))
    tags = dict(entry.get("tags") or {})
    edges = entry.get("edges")
    buckets = entry.get("buckets")
    if not isinstance(edges, list) or not isinstance(buckets, list):
        raise ValueError("histogram snapshot needs edges and buckets")
    histogram = registry.histogram(name, edges=edges, **tags)
    if len(buckets) != len(histogram.edges) + 1:
        raise ValueError("histogram snapshot bucket count mismatch")
    count = int(entry.get("count", 0))
    total = float(entry.get("sum", 0.0))
    prior_count = int(previous.get("count", 0)) if previous else 0
    if count < prior_count:  # source restarted: everything is fresh
        previous = None
    prior_buckets = list(previous.get("buckets", [])) if previous else []
    if len(prior_buckets) != len(buckets):
        prior_buckets = [0] * len(buckets)
    prior_sum = float(previous.get("sum", 0.0)) if previous else 0.0
    low = entry.get("min")
    high = entry.get("max")
    # Same-module direct state merge: observe() can't reproduce bucket
    # counts, and min/max must survive the trip.
    with histogram._lock:
        for i, bucket in enumerate(buckets):
            histogram._buckets[i] += max(0, int(bucket) - int(prior_buckets[i]))
        histogram._count += max(0, count - prior_count)
        histogram._sum += total - prior_sum if count >= prior_count else total
        if isinstance(low, (int, float)):
            histogram._min = (
                float(low) if histogram._min is None
                else min(histogram._min, float(low))
            )
        if isinstance(high, (int, float)):
            histogram._max = (
                float(high) if histogram._max is None
                else max(histogram._max, float(high))
            )
    return {"count": count, "sum": total, "buckets": list(buckets)}


# ----------------------------------------------------------------------
# the process-default registry
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry the hot paths record into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process default; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope the process default to ``registry`` (tests, replay runs)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
