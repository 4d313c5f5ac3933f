"""Frontend covert channels — the paper's core contribution (Section IV).

Every channel follows the three-step protocol of Section IV:

* **Init** — the receiver (or sender, for non-MT internal-interference
  attacks) places micro-ops into a chosen frontend path;
* **Encode** — the sender perturbs (or doesn't) the frontend state
  according to the secret bit;
* **Decode** — a timing (or power) measurement reveals which path now
  delivers the probed micro-ops.

Each bit runs through one of two protocols, written once in
:mod:`repro.channels.base`:

* :class:`NonMtChannel` — one thread runs the bit's whole
  Init/Encode/Decode loop and the receiver times (or meters) it.  A
  channel supplies its two bit bodies, ``bit_body(0)``/``bit_body(1)``;
  subclasses may change where the loop runs (``_run``: an enclave call
  for SGX) and what reads it (``meter``: RAPL for the power channels).
* :class:`MtChannel` — the receiver's ``p`` decodes race the sender's
  ``q`` encodes on the sibling hyper-thread, with synchronisation slips
  and fixed-length bit slots.  A channel supplies its receiver and
  sender loops.

Concrete channels:

========================  =========================  ====================
class                      mechanism                  setting
========================  =========================  ====================
MtEvictionChannel          DSB set eviction           hyper-threaded
MtMisalignmentChannel      LSD misalign collision     hyper-threaded
RetirementChannel          retirement-slot sharing    hyper-threaded
NonMtEvictionChannel       DSB eviction, own thread   time-sliced
NonMtMisalignmentChannel   LSD collision, own thread  time-sliced
SlowSwitchChannel          LCP stalls + DSB switches  time-sliced
PowerEvictionChannel       DSB eviction via RAPL      time-sliced
PowerMisalignmentChannel   LSD collision via RAPL     time-sliced
========================  =========================  ====================

Non-MT channels take ``variant="stealthy"`` (encode a 0 by touching a
*different* DSB set) or ``variant="fast"`` (encode a 0 by doing nothing).
"""

from repro.channels.base import (
    BitSample,
    ChannelConfig,
    CovertChannel,
    MtChannel,
    NonMtChannel,
    TransmissionResult,
)
from repro.channels.probes import PathProbe, path_timing_samples, path_power_samples
from repro.channels.eviction import MtEvictionChannel, NonMtEvictionChannel
from repro.channels.misalignment import (
    MtMisalignmentChannel,
    NonMtMisalignmentChannel,
)
from repro.channels.retirement import RetirementChannel, RETIRE_WIDTH
from repro.channels.slow_switch import SlowSwitchChannel
from repro.channels.power import PowerEvictionChannel, PowerMisalignmentChannel
from repro.channels.coding import (
    CodedChannel,
    DifferentialCode,
    LineCode,
    ManchesterCode,
    RepetitionCode,
)
from repro.channels.streamline import RingBufferChannel
from repro.channels.framing import FramedProtocol, FrameResult, crc8

__all__ = [
    "BitSample",
    "ChannelConfig",
    "CovertChannel",
    "NonMtChannel",
    "MtChannel",
    "TransmissionResult",
    "PathProbe",
    "path_timing_samples",
    "path_power_samples",
    "MtEvictionChannel",
    "NonMtEvictionChannel",
    "MtMisalignmentChannel",
    "NonMtMisalignmentChannel",
    "RetirementChannel",
    "RETIRE_WIDTH",
    "SlowSwitchChannel",
    "PowerEvictionChannel",
    "PowerMisalignmentChannel",
    "LineCode",
    "RepetitionCode",
    "ManchesterCode",
    "DifferentialCode",
    "CodedChannel",
    "RingBufferChannel",
    "FramedProtocol",
    "FrameResult",
    "crc8",
]
