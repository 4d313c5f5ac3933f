"""Covert-channel backends for the Spectre v1 comparison (Table VII).

Each channel implements the same tiny interface the victim's gadget and
the attacker's recovery loop need:

* ``prepare()`` — reset the medium before a transient attempt;
* ``touch(value, transient)`` — the gadget's side effect (called both
  architecturally during training and transiently during the attack);
* ``recover()`` — identify which of the 32 values was touched;
* ``background(calls)`` — the surrounding victim/application work, which
  is *identical* across channels so Table VII's L1 miss rates are
  comparable.

Miss accounting sums data-side (L1D) and instruction-side (L1I) accesses
and misses; the paper's headline result — the frontend channel causes no
cache misses at all, only DSB/LSD state changes — emerges mechanically
here because DSB-hit delivery never touches the L1I in the engine.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.caches.hierarchy import MemoryHierarchy
from repro.caches.presets import l1i_cache
from repro.errors import SpectreError
from repro.isa.blocks import DSB_WAYS
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine

__all__ = [
    "SpectreChannel",
    "MemFlushReload",
    "L1dFlushReload",
    "L1dLruChannel",
    "L1iFlushReload",
    "L1iPrimeProbe",
    "FrontendDsbChannel",
    "ALL_SPECTRE_CHANNELS",
    "MissCounts",
]

#: 5-bit secret chunks: 32 possible values, one DSB/cache set each.
N_VALUES = 32

#: Background work per victim invocation: data loads over a hot working
#: set and instruction fetches over the victim+attacker code footprint.
BG_DATA_ACCESSES = 220
BG_INST_FETCHES = 650
BG_DATA_LINES = 64  # working-set lines (fit in L1D: mostly hits)
BG_CODE_LINES = 96  # code lines (fit in L1I: mostly hits)


@dataclass(frozen=True)
class MissCounts:
    """Combined L1 (data + instruction) access/miss counts."""

    accesses: int
    misses: int

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def delta(self, earlier: "MissCounts") -> "MissCounts":
        return MissCounts(
            accesses=self.accesses - earlier.accesses,
            misses=self.misses - earlier.misses,
        )


class SpectreChannel(abc.ABC):
    """Base class with shared cache substrate and background workload."""

    name: str = "abstract"
    #: Secret chunk width: 5-bit chunks / 32 probe elements by default;
    #: MEM Flush+Reload follows [35] with byte chunks / 256 probe pages.
    chunk_bits: int = 5

    def __init__(self, machine: Machine, seed_name: str = "") -> None:
        self.machine = machine
        self._rng = machine.rngs.stream(f"spectre/{seed_name or self.name}")
        self.hierarchy = MemoryHierarchy()
        self.l1i = l1i_cache()
        self._data_base = 0x10_0000
        self._code_base = 0x40_0000
        self._probe_base = 0x80_0000
        #: Cycles spent in channel operations + background work; the
        #: attack's leak bandwidth (Section VIII: frontend Spectre is
        #: slower than data-cache Spectre) derives from this.
        self.cycles = 0.0

    # -- cycle accounting helpers ----------------------------------------
    #: Cost of one instruction fetch that hits the L1I.
    IFETCH_HIT_CYCLES = 1.0
    #: Cost of an L1I miss fill (L2-resident code).
    IFETCH_MISS_CYCLES = 14.0
    #: Per-probe timer overhead (rdtscp pair) for timing-based recovery.
    TIMER_CYCLES = 32.0
    #: clflush instruction cost.
    CLFLUSH_CYCLES = 40.0

    def _load(self, addr: int) -> "AccessResult":
        result = self.hierarchy.load(addr)
        self.cycles += result.latency
        return result

    def _ifetch(self, addr: int) -> bool:
        hit = self.l1i.access(addr)
        self.cycles += self.IFETCH_HIT_CYCLES if hit else self.IFETCH_MISS_CYCLES
        return hit

    # -- interface ------------------------------------------------------
    @abc.abstractmethod
    def prepare(self) -> None:
        """Reset the medium ahead of one transient attempt."""

    @abc.abstractmethod
    def touch(self, value: int, transient: bool) -> None:
        """Gadget side effect encoding ``value``."""

    @abc.abstractmethod
    def recover(self) -> int:
        """Read the medium back and return the inferred value."""

    # -- shared helpers ---------------------------------------------------
    @property
    def n_values(self) -> int:
        return 1 << self.chunk_bits

    def _check_value(self, value: int) -> int:
        if not 0 <= value < self.n_values:
            raise SpectreError(
                f"value must be in 0..{self.n_values - 1}, got {value}"
            )
        return value

    #: Probe stride: one page plus one line, so consecutive values land
    #: in different pages *and* different L1 sets (set = addr[11:6]).
    PROBE_STRIDE = 4096 + 64

    def probe_data_addr(self, value: int) -> int:
        """Probe line for ``value``; each value maps to its own L1D set."""
        return self._probe_base + value * self.PROBE_STRIDE

    def probe_code_addr(self, value: int) -> int:
        """Probe instruction line for ``value``; one L1I set per value."""
        return self._probe_base + 0x100000 + value * self.PROBE_STRIDE

    def background(self, calls: int = 1) -> None:
        """Victim + application work surrounding each channel operation.

        Each call is one batched data load and one batched instruction
        fetch, state- and stat-identical to issuing them one at a time.
        """
        for _ in range(calls):
            data = self._rng.integers(0, BG_DATA_LINES, size=BG_DATA_ACCESSES)
            self._charge(self.hierarchy.load_many(self._data_base + data * 64))
            code = self._rng.integers(0, BG_CODE_LINES, size=BG_INST_FETCHES)
            hits = self.l1i.access_many(self._code_base + code * 64)
            self._charge(
                np.where(hits, self.IFETCH_HIT_CYCLES, self.IFETCH_MISS_CYCLES)
            )

    def _charge(self, costs: np.ndarray) -> None:
        """Add ``costs`` to :attr:`cycles` one by one, in order.

        Float addition is not associative and :attr:`cycles` can carry
        fractional engine cycles, so adding a pre-summed total could
        round differently from charging each access as it happens;
        ``np.add.accumulate`` adds strictly left to right.
        """
        self.cycles = float(np.add.accumulate(np.concatenate(([self.cycles], costs)))[-1])

    def miss_counts(self) -> MissCounts:
        d = self.hierarchy.l1.stats
        i = self.l1i.stats
        return MissCounts(
            accesses=d.accesses + i.accesses,
            misses=d.misses + i.misses,
        )


class MemFlushReload(SpectreChannel):
    """Flush+Reload to DRAM on a shared probe array (clflush-based).

    Follows the baseline of [35]: byte-granularity chunks over a
    256-page probe array, which is why its probe traffic (and L1 miss
    rate) exceeds the 32-element L1I/frontend channels.
    """

    name = "mem-flush-reload"
    chunk_bits = 8

    def prepare(self) -> None:
        for value in range(self.n_values):
            self.hierarchy.flush_line(self.probe_data_addr(value))
            self.cycles += self.CLFLUSH_CYCLES

    def touch(self, value: int, transient: bool) -> None:
        self._load(self.probe_data_addr(self._check_value(value)))

    def recover(self) -> int:
        best_value, best_latency = 0, float("inf")
        for value in range(self.n_values):
            addr = self.probe_data_addr(value)
            latency = self.hierarchy.probe_latency(addr)
            self._load(addr)
            self.cycles += self.TIMER_CYCLES
            if latency < best_latency:
                best_value, best_latency = value, latency
        return best_value


class L1dFlushReload(SpectreChannel):
    """Flush+Reload scoped to the L1D.

    There is no architectural "flush from L1 only" instruction, so the
    probe lines are pushed out of the L1 with per-set conflict evictions
    — which is why this channel's own eviction traffic makes it the
    noisiest in cache-miss terms (Table VII's highest L1 miss rate).
    """

    name = "l1d-flush-reload"

    #: Conflicting lines walked per probe set to force the eviction.
    EVICTION_WAYS = 8

    def _eviction_addr(self, value: int, way: int) -> int:
        # Same L1D set as the probe line, different tags.
        return self.probe_data_addr(value) + (way + 1) * 4096

    def prepare(self) -> None:
        for value in range(self.n_values):
            for way in range(self.EVICTION_WAYS):
                self._load(self._eviction_addr(value, way))

    def touch(self, value: int, transient: bool) -> None:
        self._load(self.probe_data_addr(self._check_value(value)))

    def recover(self) -> int:
        best_value, best_latency = 0, float("inf")
        for value in range(self.n_values):
            addr = self.probe_data_addr(value)
            latency = self.hierarchy.probe_latency(addr)
            self._load(addr)
            self.cycles += self.TIMER_CYCLES
            if latency < best_latency:
                best_value, best_latency = value, latency
        return best_value


class L1dLruChannel(SpectreChannel):
    """The L1D LRU-state channel of [35] (Xiong & Szefer, HPCA 2020).

    All probe lines stay resident; the victim's (transient) hit merely
    reorders one set's LRU stack.  The attacker then inserts a single
    conflicting line per set: the identity of the evicted way — observed
    by re-timing the original lines — reveals whether the set's stack
    was rotated.  Fewer compulsory misses than Flush+Reload.
    """

    name = "l1d-lru"

    def __init__(self, machine: Machine, seed_name: str = "") -> None:
        super().__init__(machine, seed_name)
        self._round = 0

    def _primed_addr(self, value: int, way: int) -> int:
        return self.probe_data_addr(value) + way * 4096

    def prepare(self) -> None:
        self._round += 1
        ways = self.hierarchy.l1.ways
        for value in range(self.n_values):
            for way in range(ways):
                self._load(self._primed_addr(value, way))

    def touch(self, value: int, transient: bool) -> None:
        # Hits the already-resident way-0 line: no miss, LRU rotation only.
        self._load(self._primed_addr(self._check_value(value), 0))

    def recover(self) -> int:
        ways = self.hierarchy.l1.ways
        touched = 0
        for value in range(self.n_values):
            # Insert one conflicting line (rotating between two tags so
            # later rounds partially hit): evicts the set's LRU way.
            self._load(self._primed_addr(value, ways + self._round % 2))
            self.cycles += self.TIMER_CYCLES
            # If the victim touched way 0, it was MRU and survived;
            # otherwise way 0 was LRU and is now gone.
            if self.hierarchy.l1.probe(self._primed_addr(value, 0)):
                touched = value
        return touched


class L1iFlushReload(SpectreChannel):
    """Flush+Reload on instruction lines (clflush is coherent with L1I)."""

    name = "l1i-flush-reload"

    def prepare(self) -> None:
        for value in range(self.n_values):
            self.l1i.flush_line(self.probe_code_addr(value))
            self.cycles += self.CLFLUSH_CYCLES

    def touch(self, value: int, transient: bool) -> None:
        # Transiently *executing* the probe block fetches its line.
        self._ifetch(self.probe_code_addr(self._check_value(value)))

    def recover(self) -> int:
        best = 0
        for value in range(self.n_values):
            addr = self.probe_code_addr(value)
            if self.l1i.probe(addr):
                best = value
            self._ifetch(addr)
            self.cycles += self.TIMER_CYCLES
        return best


class L1iPrimeProbe(SpectreChannel):
    """Prime+Probe on L1I sets: victim execution evicts an attacker line.

    Primes fewer ways than the associativity so the attacker's resident
    set coexists with the application's code working set instead of
    thrashing it — the victim's one extra fill still overflows the set.
    This keeps the channel's own miss footprint near zero after warmup,
    matching the low L1 miss rate the paper reports for L1I P+P.
    """

    name = "l1i-prime-probe"

    #: Ways primed per set; leaves headroom for resident background code.
    PRIME_WAYS = 6

    def _prime_addr(self, value: int, way: int) -> int:
        return self.probe_code_addr(value) + (way + 1) * 4096

    def prepare(self) -> None:
        for value in range(self.n_values):
            for way in range(self.PRIME_WAYS):
                self._ifetch(self._prime_addr(value, way))

    def touch(self, value: int, transient: bool) -> None:
        # Victim's probe-block execution fills one line, evicting the
        # attacker's LRU way in that set.
        self._ifetch(self.probe_code_addr(self._check_value(value)))

    def recover(self) -> int:
        """Pick the set with the most evicted prime ways.

        Background code fetches also nibble at the primed sets, so a
        simple any-way-missing test is too noisy; the victim's touch
        adds one eviction *on top of* that baseline.
        """
        best_value, best_missing = 0, -1
        for value in range(self.n_values):
            missing = sum(
                not self.l1i.probe(self._prime_addr(value, way))
                for way in range(self.PRIME_WAYS)
            )
            self.cycles += self.PRIME_WAYS * self.IFETCH_HIT_CYCLES
            self.cycles += self.TIMER_CYCLES
            if missing > best_missing:
                best_value, best_missing = value, missing
        return best_value


class FrontendDsbChannel(SpectreChannel):
    """The paper's new channel: DSB-set residency, zero cache footprint.

    The attacker keeps 8 of its own mix blocks resident in every DSB set;
    the gadget transiently *executes* one mix block mapping to DSB set
    ``value``, evicting an attacker line from that set only.  The
    attacker's per-set probe loops then reveal which set redelivers
    through MITE.  After warmup, neither the probes (DSB hits bypass the
    L1I) nor the gadget (its block's L1I line stays resident) cause any
    cache misses.
    """

    name = "frontend-dsb"

    #: Ways the attacker occupies per DSB set (leaves no spare way, so a
    #: transient touch must evict).
    PRIME_WAYS = DSB_WAYS

    def __init__(self, machine: Machine, seed_name: str = "") -> None:
        super().__init__(machine, seed_name)
        layout = machine.layout(region_base=0xC0_0000)
        self._prime_programs = tuple(
            LoopProgram(
                layout.chain(value, self.PRIME_WAYS, label=f"dsb.prime{value}"),
                iterations=3,
                label=f"dsb-prime-{value}",
            )
            for value in range(N_VALUES)
        )
        self._probe_programs = tuple(
            program.with_iterations(1) for program in self._prime_programs
        )
        gadget_layout = machine.layout(region_base=0xE0_0000)
        self._gadget_programs = [
            LoopProgram(
                gadget_layout.chain(value, 1, first_slot=9, label=f"dsb.gadget{value}"),
                iterations=1,
                label=f"dsb-gadget-{value}",
            )
            for value in range(N_VALUES)
        ]
        # The frontend channel's i-side fetches go through the *machine*
        # core's L1I; mirror them into this experiment's L1I accounting.
        self._l1i_snapshot = machine.l1i.stats.snapshot()

    def prepare(self) -> None:
        for report in self.machine.run_loops(self._prime_programs):
            self.cycles += report.cycles

    def touch(self, value: int, transient: bool) -> None:
        report = self.machine.run_loop(
            self._gadget_programs[self._check_value(value)]
        )
        self.cycles += report.cycles

    def recover(self) -> int:
        slowest, slowest_cycles = 0, -1.0
        reports = self.machine.run_loops(self._probe_programs)
        for value, report in enumerate(reports):
            self.cycles += report.cycles + self.TIMER_CYCLES
            measured = self.machine.timer.measure(report.cycles).measured_cycles
            if measured > slowest_cycles:
                slowest, slowest_cycles = value, measured
        return slowest

    def miss_counts(self) -> MissCounts:
        """Include the machine L1I traffic the frontend probes generate."""
        base = super().miss_counts()
        core_delta = self.machine.l1i.stats.delta(self._l1i_snapshot)
        return MissCounts(
            accesses=base.accesses + core_delta.accesses,
            misses=base.misses + core_delta.misses,
        )


#: All Table VII channels in the paper's column order.
ALL_SPECTRE_CHANNELS = (
    MemFlushReload,
    L1dFlushReload,
    L1dLruChannel,
    L1iFlushReload,
    L1iPrimeProbe,
    FrontendDsbChannel,
)
