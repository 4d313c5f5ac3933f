"""Frontend geometry, latency, and energy parameters.

All structural constants come from the paper (Table I and Section III)
and the Intel SDM it cites.  The latency/energy coefficients are the
*calibrated* part of the reproduction: they are chosen so that the
simulator reproduces the orderings the paper measures —

* per-iteration latency:  ``DSB < LSD < MITE+DSB`` for the short
  chained-block loops the channels use (Figure 4; the misalignment
  channels rely on DSB being slightly *faster* than LSD for these tiny
  loops, Section IV-B, while eviction channels rely on MITE+DSB being
  much slower, Section IV-A);
* per-uop energy: ``LSD < DSB << MITE`` (Figures 12 and 13);
* LCP predecode stalls of up to 3 cycles plus a DSB-to-MITE switch
  penalty (Section III-D).

Every coefficient can be overridden to run sensitivity studies; the
ablation benchmarks sweep several of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = ["FrontendParams", "EnergyParams"]


@dataclass(frozen=True)
class FrontendParams:
    """Structural and timing parameters of the frontend model.

    Structural parameters (paper / Intel SDM):

    dsb_sets, dsb_ways, dsb_line_uops, window_bytes:
        DSB geometry: 32 sets x 8 ways, 6 uops per 32-byte window.
    lsd_capacity:
        Maximum uops the LSD can stream (64).
    lsd_detect_iterations:
        Consecutive all-DSB loop iterations before the LSD locks on.
    lsd_misalign_limit:
        Misaligned (window-spanning) blocks per DSB set above which the
        LSD collides outright (reverse-engineered: 4 misaligned blocks
        mapping to one set defeat the LSD even though they fit the DSB,
        Section III-C).
    issue_width:
        Rename/retire cap of 4 uops per cycle (Section III-A4).

    Timing coefficients (cycles; calibrated):

    dsb_window_overhead, lsd_window_overhead, mite_window_overhead:
        Added frontend bubble per 32-byte window delivered via each path.
    dsb_to_mite_penalty / mite_to_dsb_penalty:
        Path switch penalties per transition.
    lsd_flush_penalty / lsd_capture_cost:
        One-off costs when the LSD is flushed (eviction/misalignment) or
        locks onto a new loop.
    misalign_dsb_penalty:
        Extra cycles per DSB delivery of a window belonging to a
        window-spanning (misaligned) block: the DSB must read two lines
        to reconstruct the block's uop sequence.
    lcp_stall:
        Predecode stall per LCP instruction decoded by MITE (up to 3
        cycles per the paper).
    loop_iteration_overhead:
        Loop-control overhead (decrement + taken branch) per iteration.
    loop_exit_mispredict:
        Branch mispredict penalty when a loop exits.
    smt_frontend_factor:
        Frontend throughput derating while both hardware threads are
        active (fetch/decode structures are competitively shared).

    Ablation switches (DESIGN.md Section 5):

    smt_partitioning:
        When False, the DSB keeps its full 32-set indexing even with two
        active threads (no SMT fold) — removes the Figure 2 conflicts
        and starves the MT eviction channel.
    lsd_inclusive:
        When False, a DSB eviction no longer flushes the LSD — the
        eviction channel's LSD->MITE+DSB transition disappears on LSD
        machines.
    """

    # --- structure (paper values) -------------------------------------
    dsb_sets: int = 32
    dsb_ways: int = 8
    dsb_line_uops: int = 6
    window_bytes: int = 32
    lsd_capacity: int = 64
    lsd_detect_iterations: int = 2
    lsd_misalign_limit: int = 4
    issue_width: int = 4

    # --- timing (calibrated) ------------------------------------------
    dsb_window_overhead: float = 0.15
    lsd_window_overhead: float = 0.45
    mite_window_overhead: float = 2.50
    dsb_to_mite_penalty: float = 4.0
    mite_to_dsb_penalty: float = 2.0
    lsd_flush_penalty: float = 20.0
    lsd_capture_cost: float = 8.0
    misalign_dsb_penalty: float = 0.35
    lcp_stall: float = 3.0
    loop_iteration_overhead: float = 1.0
    loop_exit_mispredict: float = 14.0
    smt_frontend_factor: float = 1.6

    # --- ablation switches ---------------------------------------------
    smt_partitioning: bool = True
    lsd_inclusive: bool = True

    #: Defense: pad every DSB/LSD delivery to the full legacy-decode
    #: cost of its window, removing all path-dependent timing (at MITE
    #: pace for everything).  Used by the UniformPathTiming mitigation.
    uniform_delivery: bool = False

    #: Defense: give each hardware thread an *exclusive* half of the DSB
    #: sets under SMT (thread 0 -> sets 0-15, thread 1 -> sets 16-31)
    #: instead of folding both threads into the same half.  Cross-thread
    #: way competition — the MT eviction channel's mechanism — becomes
    #: impossible; the capacity halving (and its own self-conflicts)
    #: remains.
    smt_isolation: bool = False

    #: Consecutive MITE-delivered windows (within one loop iteration)
    #: after which the DSB stops accepting fills until the next DSB/LSD
    #: hit or loop-back branch.  Sustained legacy-decode streaks (loops
    #: far beyond DSB capacity) therefore leave a stable resident prefix
    #: instead of LRU-thrashing the whole cache to zero — reproducing
    #: the substantial steady DSB share the paper's Figure 3 measures
    #: for 4000-uop loops.  The attacks' overflow-by-one miss bursts
    #: (at most N+1 windows) stay below this limit and are unaffected.
    mite_fill_streak_limit: int = 12

    def __post_init__(self) -> None:
        if self.dsb_sets < 2 or self.dsb_sets & (self.dsb_sets - 1):
            raise ConfigurationError(
                f"dsb_sets must be a power of two >= 2, got {self.dsb_sets}"
            )
        if self.dsb_ways < 1:
            raise ConfigurationError(f"dsb_ways must be >= 1, got {self.dsb_ways}")
        if self.lsd_capacity < 1:
            raise ConfigurationError(
                f"lsd_capacity must be >= 1, got {self.lsd_capacity}"
            )
        if self.issue_width < 1:
            raise ConfigurationError(
                f"issue_width must be >= 1, got {self.issue_width}"
            )
        for name in (
            "dsb_window_overhead",
            "lsd_window_overhead",
            "mite_window_overhead",
            "dsb_to_mite_penalty",
            "mite_to_dsb_penalty",
            "lsd_flush_penalty",
            "lsd_capture_cost",
            "misalign_dsb_penalty",
            "lcp_stall",
            "loop_iteration_overhead",
            "loop_exit_mispredict",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.smt_frontend_factor < 1.0:
            raise ConfigurationError("smt_frontend_factor must be >= 1.0")

    def with_overrides(self, **kwargs: object) -> "FrontendParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energy coefficients (nanojoules; calibrated).

    The orderings are what matter for the power channels: delivering a uop
    through MITE costs several times a DSB delivery, which in turn costs
    more than an LSD replay (the LSD exists to save power; Section III).
    """

    lsd_uop_energy: float = 0.8
    dsb_uop_energy: float = 1.4
    mite_uop_energy: float = 4.5
    cycle_energy: float = 2.0  # static + clock tree, per core cycle
    lcp_stall_energy: float = 1.0  # per stall cycle
    switch_energy: float = 3.0  # per DSB<->MITE transition

    def __post_init__(self) -> None:
        for name in (
            "lsd_uop_energy",
            "dsb_uop_energy",
            "mite_uop_energy",
            "cycle_energy",
            "lcp_stall_energy",
            "switch_energy",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")

    def with_overrides(self, **kwargs: object) -> "EnergyParams":
        return replace(self, **kwargs)  # type: ignore[arg-type]
