"""How fast the host runs right now, sampled on every CPU in turn.

    python perf/hostspeed.py OUT

Every ``EVERY_S`` seconds the sampler pins itself to the next CPU it may
use and times :func:`probe`, a fixed piece of interpreter work.  When its
standard input closes it writes ``[[monotonic ns, cpu, seconds], ...]``
to ``OUT`` as JSON and exits.

The host this benchmark was built on changes speed by itself: each vCPU
flips between full speed and about half of it, independently, for
seconds to minutes at a time (see ``perf/README.md``).  ``run.py`` runs
one sampler beside each workload and scales every time it measured by
:meth:`Timeline.speed` over the same interval.  The probe is the
benchmark's own code, so no change to the program under test moves it.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import json
import os
import select
import sys
import time

import numpy as np

#: Seconds between samples; a sample takes about 0.7 ms, so the sampler
#: uses about 3% of one CPU.
EVERY_S = 0.025
#: Seconds :func:`probe` takes in the sampler on a vCPU at full speed
#: (a 2-vCPU Linux container, Python 3.11): the reference host.
REF_S = 0.00074


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def step(self, x: int) -> int:
        return (self.a * x + self.b) & 0xFFFF


class _Leaf(_Node):
    __slots__ = ()

    def step(self, x: int) -> int:
        return (x ^ self.a) + (self.b >> 1)


_NODES = [(_Node if i % 3 else _Leaf)(i, i ^ 7) for i in range(64)]
_RAMP = np.arange(64, dtype=np.int64)


def probe() -> float:
    """Seconds a fixed mix of interpreter and small-array work takes.

    Like the simulator, it spreads over many bytecodes, method calls,
    small objects and NumPy calls: in a study beside the workloads, the
    units' speed moved in proportion to this probe's (a log-log slope of
    0.8–1.2), where a tight integer loop moved too little.  The collector
    is off while it runs.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        acc, seen, parts = 0, {}, []
        for i in range(150):
            acc = _NODES[i & 63].step(acc + i)
            key = (acc & 31, i & 3)
            seen[key] = seen.get(key, 0) + 1
            text = f"{acc:x}-{i}"
            acc ^= len(text) + sum(bit for bit in (1, 2, 3, 5) if bit & acc)
            parts.append(text[:3])
            if acc % 7 == 0:
                try:
                    raise ValueError(acc)
                except ValueError as exc:
                    acc += len(exc.args)
        vec = np.zeros(64, dtype=np.int64)
        for i in range(75):
            vec += _RAMP * (i & 3)
            vec[i & 63] = int(vec.sum() & 1023)
            np.maximum(vec, 3, out=vec)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Timeline:
    """The samples of one run, asked for the host's speed over intervals."""

    def __init__(self, samples: list[list]) -> None:
        self.times = [at for at, _cpu, _seconds in samples]
        self.speeds = [REF_S / seconds for _at, _cpu, seconds in samples]
        self.sums = list(itertools.accumulate(self.speeds, initial=0.0))

    def speed(self, start_ns: int, end_ns: int) -> float:
        """Mean speed over ``[start_ns, end_ns]``, 1.0 being the reference.

        The mean of ``REF_S / seconds`` over the samples taken in the
        interval: work done in a time span is its mean speed times the
        span.  An interval shorter than the sampling period takes the
        nearest sample.
        """
        first = bisect.bisect_left(self.times, start_ns)
        last = bisect.bisect_right(self.times, end_ns)
        if last > first:
            return (self.sums[last] - self.sums[first]) / (last - first)
        middle = (start_ns + end_ns) / 2
        nearest = min(
            (index for index in (first - 1, first) if 0 <= index < len(self.times)),
            key=lambda index: abs(self.times[index] - middle),
        )
        return self.speeds[nearest]


def main(out: str) -> int:
    cpus = sorted(os.sched_getaffinity(0))
    samples = []
    turn = 0
    while not select.select([sys.stdin], [], [], EVERY_S)[0]:
        cpu = cpus[turn % len(cpus)]
        turn += 1
        os.sched_setaffinity(0, {cpu})
        samples.append([time.monotonic_ns(), cpu, probe()])
    with open(out, "w") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
