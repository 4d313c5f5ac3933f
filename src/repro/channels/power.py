"""Power covert channels via the RAPL interface (Section VI).

Same encodings as the non-MT timing channels (eviction / misalignment),
but the receiver differences the RAPL energy counter instead of reading
the timestamp counter.  Because RAPL refreshes at only ~20 kHz, each bit
must span hundreds of thousands of loop iterations (the paper uses
``p = q = 240,000``), limiting the channels to ~0.6 Kbps — still above
the 100 bps the TCSEC considers a high-bandwidth channel.
"""

from __future__ import annotations

from repro.channels.base import ChannelConfig, NonMtChannel
from repro.channels.eviction import NonMtEvictionChannel
from repro.channels.misalignment import NonMtMisalignmentChannel
from repro.machine.machine import Machine

__all__ = ["PowerEvictionChannel", "PowerMisalignmentChannel"]

#: Paper: iterations per bit for power channels (RAPL refresh limited).
POWER_ITERATIONS = 240_000


def _meter_with_rapl(channel: NonMtChannel, name: str) -> None:
    """Observe a timing channel's bits through the machine's RAPL.

    The rename comes after ``CovertChannel.__init__`` on purpose: the
    channel keeps drawing its disturbances from the stream named after
    its timing parent, ``channel/non-mt-<variant>-<mechanism>``, which
    Table V's numbers come from.  The bit loops are relabelled with the
    new name.
    """
    channel.name = name
    channel.meter = channel.machine.rapl
    channel._programs = channel._bit_programs()


class PowerEvictionChannel(NonMtEvictionChannel):
    """Eviction-encoded bits observed through RAPL (Table V, column 1)."""

    requires_rapl = True
    #: Paper (Section VI): p = q = 240,000 iterations per bit.
    DEFAULTS = {"p": POWER_ITERATIONS, "q": POWER_ITERATIONS}

    def __init__(
        self,
        machine: Machine,
        config: ChannelConfig | None = None,
        variant: str = "fast",
    ) -> None:
        super().__init__(machine, config, variant=variant)
        _meter_with_rapl(self, f"power-{variant}-eviction")


class PowerMisalignmentChannel(NonMtMisalignmentChannel):
    """Misalignment-encoded bits observed through RAPL (Table V, column 2)."""

    requires_rapl = True
    DEFAULTS = {**NonMtMisalignmentChannel.DEFAULTS, **PowerEvictionChannel.DEFAULTS}

    def __init__(
        self,
        machine: Machine,
        config: ChannelConfig | None = None,
        variant: str = "fast",
    ) -> None:
        super().__init__(machine, config, variant=variant)
        _meter_with_rapl(self, f"power-{variant}-misalignment")
