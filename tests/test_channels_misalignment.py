"""Tests for the misalignment-based covert channels."""

from __future__ import annotations

import pytest

from repro.analysis.bits import alternating_bits
from repro.channels.base import ChannelConfig
from repro.channels.misalignment import (
    MtMisalignmentChannel,
    NonMtMisalignmentChannel,
)
from repro.errors import ChannelError
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226, XEON_E2174G, XEON_E2288G
from repro.measure.noise import QUIET_PROFILE


def quiet_machine(spec=GOLD_6226, seed=21) -> Machine:
    return Machine(spec, seed=seed, timing_noise=QUIET_PROFILE,
                   smt_timing_noise=QUIET_PROFILE)


def quiet_config(**kwargs) -> ChannelConfig:
    base = dict(d=5, M=8, disturb_rate=0.0, sync_fail_rate=0.0)
    base.update(kwargs)
    return ChannelConfig(**base)


class TestNonMtMisalignment:
    def test_no_dsb_evictions(self):
        """Misalignment channels must not evict: that is their point
        (Section III-C: fewer accesses, no eviction footprint)."""
        machine = quiet_machine()
        channel = NonMtMisalignmentChannel(machine, quiet_config(), variant="fast")
        channel.send_bit(1)
        channel.send_bit(1)
        assert machine.perf.read("idq.dsb_evictions") == 0

    def test_fast_variant_bit_separation(self):
        channel = NonMtMisalignmentChannel(
            quiet_machine(), quiet_config(), variant="fast"
        )
        for _ in range(2):
            channel.send_bit(0)
            channel.send_bit(1)
        zero = channel.send_bit(0).measurement
        one = channel.send_bit(1).measurement
        assert one != pytest.approx(zero, rel=0.01)

    def test_stealthy_variant_smaller_margin_without_lsd(self):
        """On LSD-disabled machines both variants' m=0 bodies run from
        the DSB, so the stealthy decoy work demonstrably narrows the
        margin (on LSD machines the fast variant's m=0 body streams from
        the slower LSD, compressing its own margin instead)."""
        fast = NonMtMisalignmentChannel(
            quiet_machine(XEON_E2174G), quiet_config(), variant="fast"
        )
        stealthy = NonMtMisalignmentChannel(
            quiet_machine(XEON_E2174G), quiet_config(), variant="stealthy"
        )
        fast.calibrate()
        stealthy.calibrate()
        assert stealthy.decoder.margin < fast.decoder.margin

    def test_perfect_noiseless_transmission(self):
        channel = NonMtMisalignmentChannel(
            quiet_machine(), quiet_config(), variant="fast"
        )
        result = channel.transmit(alternating_bits(32))
        assert result.error_rate == 0.0

    def test_lsd_disabled_machine_still_works(self):
        """Without the LSD the encode blocks' extra windows still shift
        the timing (smaller margin, but a usable channel)."""
        channel = NonMtMisalignmentChannel(
            quiet_machine(XEON_E2174G), quiet_config(), variant="fast"
        )
        result = channel.transmit(alternating_bits(16))
        assert result.error_rate == 0.0

    def test_m_bounds(self):
        with pytest.raises(ChannelError):
            NonMtMisalignmentChannel(quiet_machine(), quiet_config(M=9))
        with pytest.raises(ChannelError):
            NonMtMisalignmentChannel(quiet_machine(), quiet_config(d=8, M=8))

    def test_bit_body_uses_misaligned_blocks_for_one(self):
        channel = NonMtMisalignmentChannel(quiet_machine(), quiet_config())
        body1 = channel.bit_body(1)
        spanning = [b for b in body1 if b.spans_windows]
        assert len(spanning) == 3  # M - d
        body0 = channel.bit_body(0)  # stealthy: aligned decoys
        assert not any(b.spans_windows for b in body0)


class TestMtMisalignment:
    def test_requires_smt(self):
        with pytest.raises(ChannelError):
            MtMisalignmentChannel(quiet_machine(XEON_E2288G))

    def test_bit_separation(self):
        channel = MtMisalignmentChannel(
            quiet_machine(), quiet_config(p=500, q=50)
        )
        for _ in range(2):
            channel.send_bit(0)
            channel.send_bit(1)
        zero = channel.send_bit(0).measurement
        one = channel.send_bit(1).measurement
        assert abs(one - zero) / zero > 0.02

    def test_transmission(self):
        channel = MtMisalignmentChannel(quiet_machine(), quiet_config(p=500, q=50))
        result = channel.transmit(alternating_bits(16))
        assert result.error_rate == 0.0

    def test_sender_blocks_are_misaligned(self):
        channel = MtMisalignmentChannel(quiet_machine(), quiet_config())
        assert all(b.spans_windows for b in channel._sender.body)
        assert not any(b.spans_windows for b in channel._receiver.body)

    def test_defaults_follow_paper(self):
        channel = MtMisalignmentChannel(quiet_machine())
        assert channel.config.d == 5
        assert channel.config.M == 8
        assert channel.config.p == 1000
