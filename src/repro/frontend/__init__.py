"""Cycle-approximate model of the Intel Skylake-family processor frontend.

Implements the three micro-op delivery paths the paper studies:

* **MITE** (:mod:`repro.frontend.mite`) — the legacy fetch/decode pipeline:
  16 bytes/cycle fetch, length-changing-prefix (LCP) predecode stalls, and
  the DSB-to-MITE switch penalty.
* **DSB** (:mod:`repro.frontend.dsb`) — the micro-op cache: 32 sets x 8
  ways of 32-byte windows holding up to 6 uops each, LRU replacement,
  per-thread virtual tagging, and SMT set partitioning.
* **LSD** (:mod:`repro.frontend.lsd`) — the loop stream detector: captures
  qualified loops of up to 64 uops and streams them from the IDQ,
  flushing on DSB eviction (inclusivity) or misalignment collisions.

:class:`repro.frontend.engine.FrontendEngine` orchestrates the paths and
produces per-loop delivery reports (cycles, per-path uop counts, switch
and stall events, energy).
"""

from repro.frontend.params import FrontendParams, EnergyParams
from repro.frontend.paths import DeliveryPath
from repro.frontend.dsb import DecodedStreamBuffer, DsbStats
from repro.frontend.lsd import LoopStreamDetector, LsdState
from repro.frontend.mite import MiteDecoder
from repro.frontend.engine import FrontendEngine, LoopReport

__all__ = [
    "FrontendParams",
    "EnergyParams",
    "DeliveryPath",
    "DecodedStreamBuffer",
    "DsbStats",
    "LoopStreamDetector",
    "LsdState",
    "MiteDecoder",
    "FrontendEngine",
    "LoopReport",
]
