"""The sweep service's JSONL event vocabulary.

Everything the service tells the outside world — progress, cache
behaviour, job lifecycle — is a stream of single-line JSON objects, one
:class:`Event` per line::

    {"event": "submitted",  "job": "job-1", "points": 8, "priority": 0, "seq": 0}
    {"event": "scheduled",  "job": "job-1", "points": 8, "seq": 1}
    {"event": "cache-hit",  "job": "job-1", "point": 0, "done": 1, "total": 8, "source": "disk", "seq": 2}
    {"event": "point-done", "job": "job-1", "point": 3, "done": 2, "total": 8, "elapsed_s": 0.12, "shared": false, "seq": 3}
    {"event": "job-done",   "job": "job-1", "status": "ok", "points": 8, "cache_hits": 1, "computed": 7, "shared": 0, "elapsed_s": 0.9, "seq": 4}
    {"event": "error",      "job": "job-1", "message": "...", "seq": 4}

The same format backs ``python -m repro sweep --progress`` (via
:func:`jsonl_progress`, minus the job/seq fields), so a consumer written
against the service's stream parses single-shot CLI sweeps unchanged.
Events go to **stderr** in the CLI; stdout stays reserved for results.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Callable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.base import PointTiming

__all__ = [
    "EVENT_KINDS",
    "Event",
    "jsonl_progress",
]

#: Every event kind the service emits, in rough lifecycle order.
EVENT_KINDS = (
    "submitted",   # job accepted into the queue
    "scheduled",   # job picked up; its grid is expanded and claimed
    "cache-hit",   # one point served without execution (disk or memory)
    "point-done",  # one point computed (possibly by another job: shared)
    "job-done",    # terminal: status ok / cancelled / error, with totals
    "error",       # a job failed; the message explains why
)


@dataclass(frozen=True)
class Event:
    """One service event: a ``kind`` plus its flat JSON payload."""

    kind: str
    data: Mapping[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """Single-line JSON encoding (the wire/stderr format); a value JSON
        cannot carry raises ``TypeError`` here, not as a repr on the wire."""
        return json.dumps({"event": self.kind, **self.data}, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str | bytes) -> "Event":
        """Decode one JSONL line; anything but a JSON object with a string
        ``event`` tag raises ``ValueError``."""
        payload = json.loads(line)
        kind = payload.pop("event", None) if isinstance(payload, dict) else None
        if not isinstance(kind, str):
            raise ValueError(f"not a service event: {line[:200]!r}")
        return cls(kind=kind, data=payload)

    def __getitem__(self, key: str) -> object:
        return self.data[key]

    def get(self, key: str, default: object = None) -> object:
        return self.data.get(key, default)


def jsonl_progress(
    stream: IO[str] | None = None,
) -> Callable[[int, int, "PointTiming"], None]:
    """Progress callback emitting service-format JSONL events.

    Drop-in for :meth:`repro.sweep.ParameterSweep.run`'s ``progress``
    argument: every completed point becomes one ``cache-hit`` or
    ``point-done`` line on ``stream`` (default stderr), identical in
    shape to the sweep service's per-point events so the two streams
    share one parser.
    """
    out = stream if stream is not None else sys.stderr

    def callback(done: int, total: int, timing: "PointTiming") -> None:
        if timing.cached:
            event = Event(
                "cache-hit",
                {"point": timing.index, "done": done, "total": total,
                 "source": "disk"},
            )
        else:
            event = Event(
                "point-done",
                {"point": timing.index, "done": done, "total": total,
                 "elapsed_s": round(timing.elapsed_s, 6), "shared": False},
            )
        print(event.to_json(), file=out, flush=True)

    return callback
