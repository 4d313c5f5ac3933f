"""Retirement-slot contention covert channel (after arXiv 2307.12486).

The frontend channels in this package all perturb *delivery* state (DSB
sets, the LSD, decode paths).  The retirement channel lives at the other
end of the pipeline: on an SMT core the in-order retirement stage's
``RETIRE_WIDTH`` slots per cycle are shared between the sibling
hardware threads, alternating round-robin whenever both have retirable
micro-ops.  A sender that retires a dense micro-op stream steals half
the receiver's retirement bandwidth; one that idles leaves all slots to
the receiver.  The receiver times a fixed loop and reads the bit off
the contention delta.

Two modelling choices keep the signal attributable to the *retirement
unit* rather than re-measuring the frontend channels:

* sender and receiver loops live in **different DSB sets**, so there is
  no eviction/misalignment interference between them — the receiver's
  frontend delivery is identical for both bit values;
* the contention term is computed from retired micro-op counts
  (``LoopReport.total_uops``), not from frontend path timings: during
  the overlapped window each thread gets at most half the slots, so the
  receiver pays ``contended_uops / RETIRE_WIDTH`` extra cycles, capped
  by how many micro-ops the sender can actually feed the stage.

The protocol reuses the MT framing of Section V-A: per-bit windows with
synchronisation slip at sender activity edges as the dominant error
source, fixed-duration bit slots, and the hyper-threaded timer noise
profile.
"""

from __future__ import annotations

from repro.channels.base import BitSample, ChannelConfig, CovertChannel
from repro.errors import ChannelError
from repro.isa.blocks import DSB_WAYS
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine

__all__ = ["RetirementChannel", "RETIRE_WIDTH"]

#: Retirement slots per cycle the sibling threads share (Skylake's
#: 4-wide in-order retirement stage).
RETIRE_WIDTH = 4


class RetirementChannel(CovertChannel):
    """Hyper-threaded retirement-slot contention channel."""

    name = "mt-retirement"
    requires_smt = True

    #: MT protocol defaults: symmetric sender/receiver iteration counts
    #: (the sender must be able to feed the retirement stage for the
    #: whole receiver window) and a tighter slip rate than the frontend
    #: MT channels — retirement windows need no set-phase alignment,
    #: only coarse overlap.
    DEFAULTS = {"p": 300, "q": 300, "sync_fail_rate": 0.06}

    def __init__(self, machine: Machine, config: ChannelConfig | None = None) -> None:
        super().__init__(machine, config)
        if not 1 <= self.config.d <= DSB_WAYS:
            raise ChannelError(
                f"d must be in 1..{DSB_WAYS} for the retirement channel, "
                f"got {self.config.d}"
            )
        layout = machine.layout()
        # Disjoint sets: config validation already guarantees
        # target_set != decoy_set, so the loops never contend in the DSB.
        self._receiver = LoopProgram(
            layout.chain(self.config.target_set, self.config.d, label="retire.recv"),
            self.config.p,
            "retire.recv",
        )
        sender_blocks = layout.chain(
            self.config.decoy_set,
            self.config.d,
            first_slot=self.config.d,
            label="retire.send",
        )
        self._sender_uops_per_iter = sum(block.uop_count for block in sender_blocks)

    def send_bit(self, m: int) -> BitSample:
        m = self._validate_bit(m)
        cfg = self.config
        # Synchronisation slip at sender activity edges, as for the
        # other MT channels (Section V-A).
        overlap = self._overlap(m)

        report = self.machine.run_loop(self._receiver)
        # Round-robin slot sharing during the overlapped window: the
        # receiver loses every other slot, i.e. pays one extra cycle per
        # RETIRE_WIDTH contended micro-ops — bounded by the micro-ops
        # the sender can retire in its q iterations.
        contended_uops = min(
            overlap * report.total_uops,
            float(cfg.q * self._sender_uops_per_iter),
        )
        contention = contended_uops / RETIRE_WIDTH
        true_cycles = report.cycles + contention
        measured = self.machine.smt_timer.measure(true_cycles).measured_cycles
        elapsed = self._slotted(true_cycles) + cfg.bit_overhead_cycles
        return BitSample(measurement=measured, elapsed_cycles=elapsed, sent=m)
