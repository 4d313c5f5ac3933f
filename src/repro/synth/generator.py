"""Seeded candidate generation and the four mutation operators.

:class:`ProgramGenerator` draws fresh :class:`CandidateProgram` genomes
from the grammar (DSB-set pressure, chain lengths, 16-byte alignment
shifts, LCP prefix blocks) and mutates existing ones.  Every draw is a
named numpy stream derived from the root seed and the global candidate
index (``synth/gen/{i}`` / ``synth/mut/{i}``), so a generator is a pure
function of ``(seed, config, index)`` — independent of process, hash
seed, and call interleaving.

Generation is biased, not uniform: encode segments adopt a probe
segment's DSB set with probability :attr:`GeneratorConfig.contend_bias`,
because set contention between sender and receiver is the structural
precondition of every eviction-family channel.  The search still earns
its keep on the *rest* of the genome (chain lengths vs. way counts,
alignment, LCP pressure, decoy placement).

Mutation operators (the ISSUE's four):

* **splice** — keep parent A's probe, cross A's and B's encode tails;
* **align-shift** — toggle 16-byte misalignment on one segment;
* **prefix-toggle** — flip one segment between ``std`` and ``lcp``;
* **block-swap** — swap two encode segments, or re-draw the DSB set of
  a lone segment (and with it the whole contention pattern).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import RngFactory
from repro.synth.candidate import (
    DSB_SETS,
    MAX_SEGMENT_BLOCKS,
    SEGMENT_KINDS,
    CandidateProgram,
    Segment,
)
from repro.wire import Wire, canonical_json

__all__ = ["GeneratorConfig", "ProgramGenerator", "MUTATION_NAMES"]

#: The mutation operator vocabulary, in dispatch order.
MUTATION_NAMES = ("splice", "align-shift", "prefix-toggle", "block-swap")


@dataclass(frozen=True)
class GeneratorConfig(Wire):
    """Grammar bounds and biases for fresh candidate draws."""

    max_probe_segments: int = 2
    max_encode_segments: int = 2
    max_blocks: int = 9
    #: Probability an encode segment reuses a probe segment's DSB set.
    contend_bias: float = 0.6
    #: Probability a segment is an LCP prefix-pressure block chain.
    lcp_rate: float = 0.2
    #: Probability a segment is placed 16 bytes past the window boundary.
    misalign_rate: float = 0.25
    #: Receiver iterations per bit the grammar may pick from.
    iterations: tuple[int, ...] = (6, 10, 14)

    def __post_init__(self) -> None:
        object.__setattr__(self, "iterations", tuple(self.iterations))
        if not 1 <= self.max_probe_segments <= 4:
            raise ConfigurationError("max_probe_segments must be in 1..4")
        if not 1 <= self.max_encode_segments <= 4:
            raise ConfigurationError("max_encode_segments must be in 1..4")
        if not 1 <= self.max_blocks <= MAX_SEGMENT_BLOCKS:
            raise ConfigurationError(
                f"max_blocks must be in 1..{MAX_SEGMENT_BLOCKS}"
            )
        for rate in (self.contend_bias, self.lcp_rate, self.misalign_rate):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError("rates must be probabilities")
        if not self.iterations:
            raise ConfigurationError("iterations choices must be non-empty")


class ProgramGenerator:
    """Deterministic candidate source: fresh draws and mutations."""

    def __init__(self, seed: int = 0, config: GeneratorConfig | None = None):
        self.seed = int(seed)
        self.config = config or GeneratorConfig()
        self._rngs = RngFactory(self.seed)

    # ------------------------------------------------------------------
    # fresh draws
    # ------------------------------------------------------------------
    def _segment(
        self, rng: np.random.Generator, anchor_set: int | None
    ) -> Segment:
        cfg = self.config
        kind = "lcp" if rng.random() < cfg.lcp_rate else "std"
        if anchor_set is None:
            dsb_set = int(rng.integers(DSB_SETS))
        else:
            dsb_set = anchor_set
        return Segment(
            kind=kind,
            dsb_set=dsb_set,
            count=1 + int(rng.integers(cfg.max_blocks)),
            misaligned=bool(rng.random() < cfg.misalign_rate),
            lcp_sets=1 + int(rng.integers(8)),
        )

    def generate(self, index: int) -> CandidateProgram:
        """Draw the ``index``-th fresh candidate of this seed's universe."""
        cfg = self.config
        rng = self._rngs.stream(f"synth/gen/{index}")
        probe = tuple(
            self._segment(rng, None)
            for _ in range(1 + int(rng.integers(cfg.max_probe_segments)))
        )
        encode = []
        for _ in range(1 + int(rng.integers(cfg.max_encode_segments))):
            anchor: int | None = None
            if rng.random() < cfg.contend_bias:
                anchor = probe[int(rng.integers(len(probe)))].dsb_set
            encode.append(self._segment(rng, anchor))
        return CandidateProgram(
            probe=probe,
            encode=tuple(encode),
            decoy_stride=1 + int(rng.integers(DSB_SETS - 1)),
            iterations=cfg.iterations[int(rng.integers(len(cfg.iterations)))],
        )

    # ------------------------------------------------------------------
    # mutation operators
    # ------------------------------------------------------------------
    @staticmethod
    def _splice(
        a: CandidateProgram, b: CandidateProgram, rng: np.random.Generator
    ) -> CandidateProgram:
        cut_a = int(rng.integers(len(a.encode)))
        cut_b = int(rng.integers(len(b.encode)))
        encode = (a.encode[:cut_a] + b.encode[cut_b:])[:4]
        if not encode:
            encode = b.encode[:1]
        return dataclasses.replace(a, encode=encode)

    @staticmethod
    def _align_shift(
        a: CandidateProgram, _b: CandidateProgram, rng: np.random.Generator
    ) -> CandidateProgram:
        segments = list(a.probe) + list(a.encode)
        pick = int(rng.integers(len(segments)))
        flipped = dataclasses.replace(
            segments[pick], misaligned=not segments[pick].misaligned
        )
        segments[pick] = flipped
        probe = tuple(segments[: len(a.probe)])
        encode = tuple(segments[len(a.probe):])
        return dataclasses.replace(a, probe=probe, encode=encode)

    @staticmethod
    def _prefix_toggle(
        a: CandidateProgram, _b: CandidateProgram, rng: np.random.Generator
    ) -> CandidateProgram:
        segments = list(a.probe) + list(a.encode)
        pick = int(rng.integers(len(segments)))
        other = SEGMENT_KINDS[1 - SEGMENT_KINDS.index(segments[pick].kind)]
        segments[pick] = dataclasses.replace(segments[pick], kind=other)
        probe = tuple(segments[: len(a.probe)])
        encode = tuple(segments[len(a.probe):])
        return dataclasses.replace(a, probe=probe, encode=encode)

    @staticmethod
    def _block_swap(
        a: CandidateProgram, _b: CandidateProgram, rng: np.random.Generator
    ) -> CandidateProgram:
        if len(a.encode) >= 2:
            i = int(rng.integers(len(a.encode)))
            j = int(rng.integers(len(a.encode) - 1))
            if j >= i:
                j += 1
            encode = list(a.encode)
            encode[i], encode[j] = encode[j], encode[i]
            return dataclasses.replace(a, encode=tuple(encode))
        moved = dataclasses.replace(
            a.encode[0], dsb_set=int(rng.integers(DSB_SETS))
        )
        return dataclasses.replace(a, encode=(moved,))

    def mutate(
        self,
        a: CandidateProgram,
        b: CandidateProgram,
        index: int,
    ) -> CandidateProgram:
        """Apply one operator to parents ``(a, b)`` at candidate ``index``."""
        rng = self._rngs.stream(f"synth/mut/{index}")
        operators = (
            self._splice,
            self._align_shift,
            self._prefix_toggle,
            self._block_swap,
        )
        operator = operators[int(rng.integers(len(operators)))]
        mutated = operator(a, b, rng)
        # A stride nudge rides along occasionally so decoy placement —
        # which no named operator touches — stays searchable.
        if rng.random() < 0.25:
            mutated = dataclasses.replace(
                mutated, decoy_stride=1 + int(rng.integers(DSB_SETS - 1))
            )
        return mutated

    # ------------------------------------------------------------------
    def fingerprint_inputs(self, indices: range) -> str:
        """Canonical JSON of fresh draws — the hash-seed invariance probe."""
        return canonical_json([self.generate(index).to_dict() for index in indices])
