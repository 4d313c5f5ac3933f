"""Benign workload generators for detection and performance studies.

The anomaly detector's false-positive behaviour (and the defense
evaluator's cost model) should be judged against *diverse* ordinary code,
not one hot loop.  These generators produce loop programs with the
frontend character of common application classes:

* **hot_kernel** — a small numeric kernel: fits the LSD, zero frontend
  events after warmup (the best case for the DSB/LSD design);
* **medium_loop** — a few hundred uops of straight-line work per
  iteration: DSB-resident, no evictions;
* **interpreter** — a dispatch-loop shape: a resident core plus a
  rotating set of handler blocks in varied DSB sets, producing a modest
  natural eviction/switch rate (the hardest benign case for detectors);
* **lcp_media** — unicode/media-processing shape: occasional
  LCP-prefixed instructions inside otherwise plain loops (the paper
  notes LCPs "may appear with unicode processing and image processing");
* **branchy** — many short blocks across many sets, frequent DSB line
  ends (branches), loop body above LSD capacity.

Each generator is deterministic given its RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.isa.blocks import DSB_SETS, MixBlock, lcp_block, standard_mix_block
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram

__all__ = ["WorkloadLibrary", "WorkloadSpec"]


@dataclass(frozen=True)
class WorkloadSpec:
    """A named benign workload: the loop program plus metadata."""

    name: str
    program: LoopProgram
    description: str


class WorkloadLibrary:
    """Deterministic benign workload factory over one code region."""

    def __init__(
        self,
        rng: np.random.Generator,
        region_base: int = 0x02_000000,
        iterations: int = 5_000,
    ) -> None:
        if iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        self._rng = rng
        self._layout = BlockChainLayout(region_base=region_base)
        self.iterations = iterations

    # ------------------------------------------------------------------
    def hot_kernel(self) -> WorkloadSpec:
        dsb_set = int(self._rng.integers(0, DSB_SETS))
        blocks = self._layout.chain(dsb_set, 6, label="wl.hot")
        return WorkloadSpec(
            "hot_kernel",
            LoopProgram(blocks, self.iterations, "wl.hot"),
            "30-uop numeric kernel; LSD-resident",
        )

    def medium_loop(self) -> WorkloadSpec:
        sets = self._rng.choice(DSB_SETS, size=4, replace=False)
        blocks: list[MixBlock] = []
        for slot, dsb_set in enumerate(sets):
            blocks.extend(
                self._layout.chain(
                    int(dsb_set), 5, first_slot=10 + slot, label="wl.med"
                )
            )
        return WorkloadSpec(
            "medium_loop",
            LoopProgram(blocks, self.iterations, "wl.med"),
            "100-uop loop over 4 DSB sets; DSB-resident",
        )

    def interpreter(self, handlers: int = 12) -> WorkloadSpec:
        """Dispatch core + a sampled handler per 'opcode'.

        The body models one interpreter time slice: the dispatch blocks
        plus ``handlers`` handler blocks drawn (with repetition) from a
        12-deep pool spread over three DSB sets — real handler tables
        spread across the address space, so the frontend sees varied
        sets and occasional cold fills but no sustained single-set
        thrash (sustained self-thrash of one DSB set is precisely the
        eviction-attack signature, not an interpreter's).
        """
        if handlers < 1:
            raise ConfigurationError("handlers must be >= 1")
        dispatch = self._layout.chain(0, 3, first_slot=40, label="wl.dispatch")
        blocks = list(dispatch)
        choices = self._rng.integers(0, 12, size=handlers)  # 12-deep pool
        for choice in choices:
            pool_set = 5 + int(choice) // 4  # 4 handlers per set
            blocks.append(
                standard_mix_block(
                    self._layout.block_address(pool_set, 50 + int(choice) % 4),
                    label=f"wl.handler{int(choice)}",
                )
            )
        return WorkloadSpec(
            "interpreter",
            LoopProgram(blocks, self.iterations, "wl.interp"),
            f"dispatch loop + {handlers} handlers from a 12-deep pool",
        )

    def lcp_media(self) -> WorkloadSpec:
        plain = self._layout.chain(9, 4, first_slot=70, label="wl.media")
        prefixed = lcp_block(
            self._layout.block_address(11, 75), lcp_sets=4, mixed=False,
            label="wl.media.lcp",
        )
        return WorkloadSpec(
            "lcp_media",
            LoopProgram(plain + [prefixed], self.iterations, "wl.media"),
            "media-processing shape: plain loop + a 16-bit arithmetic tail",
        )

    def branchy(self) -> WorkloadSpec:
        sets = self._rng.choice(DSB_SETS, size=8, replace=False)
        blocks = [
            standard_mix_block(
                self._layout.block_address(int(dsb_set), 80 + i), label="wl.branchy"
            )
            for i, dsb_set in enumerate(sets)
        ] * 2
        return WorkloadSpec(
            "branchy",
            LoopProgram(blocks, self.iterations, "wl.branchy"),
            "80-uop body over 8 sets; above LSD capacity, DSB-bound",
        )

    # ------------------------------------------------------------------
    def all_workloads(self) -> list[WorkloadSpec]:
        return [
            self.hot_kernel(),
            self.medium_loop(),
            self.interpreter(),
            self.lcp_media(),
            self.branchy(),
        ]
