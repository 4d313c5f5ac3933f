"""Machine-readable manifest of the paper's structural constants.

The reproduction's claims rest on exact figures from the paper (Leaky
Frontends, HPCA 2022) and the Intel SDM sections it cites: the DSB is
32 sets x 8 ways with at most 6 uops per 32-byte window, the LSD
streams up to 64 uops, MITE fetches 16 bytes per cycle with LCP
predecode stalls of up to 3 cycles, and Table I fixes the four tested
machines.  Those numbers appear in code (``isa/blocks.py``,
``frontend/lsd.py``, ``frontend/params.py``, ``frontend/mite.py``,
``caches/presets.py``, ``machine/specs.py``) *and* in prose
(``docs/model.md``, ``README.md``), so a constant edited in one place
silently forks the model from its documentation — and, worse, from the
cached sweep results keyed on the old behaviour.

This manifest is the single source of truth the ``fidelity-*`` lint
rules check everything else against.  Each :class:`ConstantSpec` names
a symbol in a source file (a dataclass field default, a module-level
constant, or a keyword argument of a module-level constructor call) and
the exact literal it must hold; each :class:`DocSpec` names a phrase a
documentation file must still contain.  Changing a constant therefore
requires changing it *here too*, with the citation in view — which is
the design review the rule enforces.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ConstantSpec", "DocSpec", "CONSTANTS", "DOCS"]


@dataclass(frozen=True)
class ConstantSpec:
    """One structural constant: where it lives and what it must equal.

    ``symbol`` grammar (resolved by the fidelity rule against the AST):

    * ``"NAME"`` — module-level ``NAME = <literal>``;
    * ``"Class.field"`` — dataclass/class attribute default;
    * ``"NAME.kwarg"`` — keyword argument of the module-level
      ``NAME = SomeCall(..., kwarg=<literal>, ...)``.
    """

    name: str  # manifest id, e.g. "dsb.sets"
    path: str  # repo-relative source file
    symbol: str
    expected: object
    citation: str


@dataclass(frozen=True)
class DocSpec:
    """A phrase a documentation file must contain verbatim."""

    name: str
    path: str
    phrase: str
    citation: str


_BLOCKS = "src/repro/isa/blocks.py"
_LSD = "src/repro/frontend/lsd.py"
_L1I = "src/repro/caches/presets.py"
_PARAMS = "src/repro/frontend/params.py"
_MITE = "src/repro/frontend/mite.py"
_SPECS = "src/repro/machine/specs.py"
_EVICTION = "src/repro/channels/eviction.py"
_MISALIGN = "src/repro/channels/misalignment.py"
_POWER = "src/repro/channels/power.py"
_SGX = "src/repro/sgx/attacks.py"

CONSTANTS: tuple[ConstantSpec, ...] = (
    # ---- DSB geometry (SDM via paper Section III-B) -------------------
    ConstantSpec("dsb.sets", _BLOCKS, "DSB_SETS", 32,
                 "paper Sec. III-B / SDM: DSB has 32 sets"),
    ConstantSpec("dsb.ways", _BLOCKS, "DSB_WAYS", 8,
                 "paper Sec. III-B / SDM: DSB has 8 ways"),
    ConstantSpec("dsb.line_uops", _BLOCKS, "DSB_LINE_UOPS", 6,
                 "paper Sec. III-B / SDM: <= 6 uops per DSB line"),
    ConstantSpec("dsb.window_bytes", _BLOCKS, "WINDOW_BYTES", 32,
                 "paper Sec. III-B: 32-byte instruction windows"),
    # ---- LSD ----------------------------------------------------------
    ConstantSpec("lsd.capacity_uops", _LSD, "LSD_CAPACITY", 64,
                 "paper Sec. III-C / Table I: 64-uop LSD"),
    # ---- MITE ---------------------------------------------------------
    ConstantSpec("mite.fetch_bytes_per_cycle", _MITE, "FETCH_BYTES_PER_CYCLE", 16,
                 "paper Sec. III-D / SDM: legacy fetch is 16 B/cycle"),
    ConstantSpec("mite.lcp_stall_cycles", _PARAMS, "FrontendParams.lcp_stall", 3.0,
                 "paper Sec. III-D: LCP predecode stalls up to 3 cycles"),
    # ---- issue/rename width -------------------------------------------
    ConstantSpec("core.issue_width", _PARAMS, "FrontendParams.issue_width", 4,
                 "paper Sec. III-A4: 4-wide rename/retire"),
    # ---- calibrated latency coefficients -------------------------------
    # These are not SDM figures, but recalibrating any of them silently
    # re-tunes every timing channel and every cached sweep result keyed
    # on the old behaviour.  The manifest pins the calibration that
    # reproduces the paper's orderings (DSB < LSD < MITE+DSB per window,
    # Figure 4); changing one requires changing it here, with the
    # downstream blast radius in view.
    ConstantSpec("latency.dsb_window", _PARAMS,
                 "FrontendParams.dsb_window_overhead", 0.15,
                 "calibrated: DSB per-window bubble (fastest path, Fig. 4)"),
    ConstantSpec("latency.lsd_window", _PARAMS,
                 "FrontendParams.lsd_window_overhead", 0.45,
                 "calibrated: LSD per-window bubble (slower than DSB for "
                 "tiny loops, Sec. IV-B)"),
    ConstantSpec("latency.mite_window", _PARAMS,
                 "FrontendParams.mite_window_overhead", 2.5,
                 "calibrated: MITE per-window bubble (dominant eviction "
                 "signal, Sec. IV-A)"),
    ConstantSpec("latency.dsb_to_mite", _PARAMS,
                 "FrontendParams.dsb_to_mite_penalty", 4.0,
                 "calibrated: DSB->MITE switch penalty (Sec. III-D)"),
    ConstantSpec("latency.mite_to_dsb", _PARAMS,
                 "FrontendParams.mite_to_dsb_penalty", 2.0,
                 "calibrated: MITE->DSB switch penalty (Sec. III-D)"),
    ConstantSpec("latency.lsd_flush", _PARAMS,
                 "FrontendParams.lsd_flush_penalty", 20.0,
                 "calibrated: one-off LSD flush cost (eviction channels)"),
    ConstantSpec("latency.lsd_capture", _PARAMS,
                 "FrontendParams.lsd_capture_cost", 8.0,
                 "calibrated: LSD lock-on cost for a new loop"),
    ConstantSpec("latency.misalign_dsb", _PARAMS,
                 "FrontendParams.misalign_dsb_penalty", 0.35,
                 "calibrated: extra DSB cost per misaligned window "
                 "(Sec. IV-B)"),
    ConstantSpec("latency.loop_iteration", _PARAMS,
                 "FrontendParams.loop_iteration_overhead", 1.0,
                 "calibrated: loop-control overhead per iteration"),
    ConstantSpec("latency.loop_exit", _PARAMS,
                 "FrontendParams.loop_exit_mispredict", 14.0,
                 "calibrated: loop-exit mispredict penalty"),
    ConstantSpec("latency.smt_factor", _PARAMS,
                 "FrontendParams.smt_frontend_factor", 1.6,
                 "calibrated: frontend derating with both SMT threads "
                 "active (Sec. IV-A)"),
    # ---- calibrated energy coefficients --------------------------------
    # The power channels (Figures 12/13) depend only on the ordering
    # LSD < DSB << MITE, but the absolute values key the cached energy
    # metrics — pin them all.
    ConstantSpec("energy.lsd_uop", _PARAMS, "EnergyParams.lsd_uop_energy", 0.8,
                 "calibrated: LSD replay is the cheapest delivery "
                 "(Fig. 12/13: LSD < DSB << MITE)"),
    ConstantSpec("energy.dsb_uop", _PARAMS, "EnergyParams.dsb_uop_energy", 1.4,
                 "calibrated: DSB delivery energy per uop"),
    ConstantSpec("energy.mite_uop", _PARAMS, "EnergyParams.mite_uop_energy", 4.5,
                 "calibrated: legacy decode costs several times DSB "
                 "(Fig. 12/13)"),
    ConstantSpec("energy.cycle", _PARAMS, "EnergyParams.cycle_energy", 2.0,
                 "calibrated: static + clock-tree energy per core cycle"),
    ConstantSpec("energy.lcp_stall", _PARAMS, "EnergyParams.lcp_stall_energy", 1.0,
                 "calibrated: energy per LCP predecode stall cycle"),
    ConstantSpec("energy.switch", _PARAMS, "EnergyParams.switch_energy", 3.0,
                 "calibrated: energy per DSB<->MITE transition"),
    # ---- L1I geometry -------------------------------------------------
    ConstantSpec("l1i.sets", _L1I, "L1I_SETS", 64, "SDM: L1I is 64 sets"),
    ConstantSpec("l1i.ways", _L1I, "L1I_WAYS", 8, "SDM: L1I is 8 ways"),
    ConstantSpec("l1i.line_bytes", _L1I, "L1I_LINE_BYTES", 64,
                 "SDM: 64-byte cache lines"),
    # ---- Table I machines ---------------------------------------------
    ConstantSpec("gold6226.frequency_ghz", _SPECS, "GOLD_6226.frequency_ghz", 2.7,
                 "Table I: Gold 6226 @ 2.7 GHz"),
    ConstantSpec("gold6226.cores", _SPECS, "GOLD_6226.cores", 12,
                 "Table I: Gold 6226 has 12 cores"),
    ConstantSpec("gold6226.threads", _SPECS, "GOLD_6226.threads", 24,
                 "Table I: Gold 6226 has 24 threads"),
    ConstantSpec("gold6226.lsd_enabled", _SPECS, "GOLD_6226.lsd_enabled", True,
                 "Table I: Gold 6226 LSD enabled, 64 entries"),
    ConstantSpec("e2174g.frequency_ghz", _SPECS, "XEON_E2174G.frequency_ghz", 3.8,
                 "Table I: E-2174G @ 3.8 GHz"),
    ConstantSpec("e2174g.cores", _SPECS, "XEON_E2174G.cores", 4,
                 "Table I: E-2174G has 4 cores"),
    ConstantSpec("e2174g.lsd_enabled", _SPECS, "XEON_E2174G.lsd_enabled", False,
                 "Table I: E-2174G LSD disabled by microcode"),
    ConstantSpec("e2286g.frequency_ghz", _SPECS, "XEON_E2286G.frequency_ghz", 4.0,
                 "Table I: E-2286G @ 4.0 GHz"),
    ConstantSpec("e2286g.cores", _SPECS, "XEON_E2286G.cores", 6,
                 "Table I: E-2286G has 6 cores"),
    ConstantSpec("e2286g.lsd_enabled", _SPECS, "XEON_E2286G.lsd_enabled", False,
                 "Table I: E-2286G LSD disabled by microcode"),
    ConstantSpec("e2288g.frequency_ghz", _SPECS, "XEON_E2288G.frequency_ghz", 3.7,
                 "Table I: E-2288G @ 3.7 GHz"),
    ConstantSpec("e2288g.cores", _SPECS, "XEON_E2288G.cores", 8,
                 "Table I: E-2288G has 8 cores"),
    ConstantSpec("e2288g.threads", _SPECS, "XEON_E2288G.threads", 8,
                 "Table I: Azure E-2288G has hyper-threading disabled"),
    ConstantSpec("e2288g.lsd_enabled", _SPECS, "XEON_E2288G.lsd_enabled", True,
                 "Table I: E-2288G LSD enabled, 64 entries"),
    ConstantSpec("e2288g.smt", _SPECS, "XEON_E2288G.smt", False,
                 "Table I: Azure E-2288G has hyper-threading disabled"),
    # ---- covert-channel protocol parameters ---------------------------
    ConstantSpec("protocol.mt_iterations", _EVICTION,
                 "MtEvictionChannel.DEFAULTS", {"p": 1000, "q": 100},
                 "paper Sec. V-A: MT channels use p = 1000, q = 100"),
    ConstantSpec("protocol.misalignment_blocks", _MISALIGN,
                 "NonMtMisalignmentChannel.DEFAULTS", {"d": 5, "M": 8},
                 "paper Sec. V-C: misalignment channels use d = 5, M = 8"),
    ConstantSpec("protocol.power_iterations", _POWER, "POWER_ITERATIONS",
                 240_000,
                 "paper Sec. VI: power channels use p = q = 240,000"),
    ConstantSpec("protocol.sgx_iterations", _SGX, "SgxNonMtAttack.DEFAULTS",
                 {"p": 1000, "q": 1000},
                 "paper Sec. VII: SGX attacks use p = 1,000 iterations"),
    ConstantSpec("protocol.sgx_mt_iterations", _SGX, "SgxMtAttack.DEFAULTS",
                 {"p": 1000, "q": 10_000},
                 "paper Sec. VII: the SGX MT attack uses p = 1,000, "
                 "q = 10,000"),
)

DOCS: tuple[DocSpec, ...] = (
    DocSpec("docs.dsb_geometry", "docs/model.md", "32 sets x 8 ways",
            "docs must quote the DSB geometry the code implements"),
    DocSpec("docs.lsd_capacity", "docs/model.md", "64 uops",
            "docs must quote the LSD capacity"),
    DocSpec("docs.mite_fetch", "docs/model.md", "16 B/cycle",
            "docs must quote the MITE fetch bandwidth"),
    DocSpec("docs.l1i_geometry", "docs/model.md", "64 sets x 8 ways x 64 B",
            "docs must quote the L1I geometry"),
    DocSpec("readme.dsb_geometry", "README.md", "32 sets x 8 ways",
            "README quotes the DSB geometry"),
)
