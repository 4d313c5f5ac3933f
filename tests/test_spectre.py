"""Tests for the Spectre v1 attack and its covert-channel backends."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import SpectreError
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.spectre.attack import SpectreV1Attack
from repro.spectre.btb import SpectreV2Attack
from repro.spectre.channels import (
    ALL_SPECTRE_CHANNELS,
    FrontendDsbChannel,
    L1dFlushReload,
    L1dLruChannel,
    L1iFlushReload,
    L1iPrimeProbe,
    MemFlushReload,
)
from repro.spectre.predictor import BranchPredictor
from repro.spectre.victim import SpectreV1Victim, TransientWindow


class TestBranchPredictor:
    def test_initially_not_taken(self):
        assert not BranchPredictor().predict(0x400000)

    def test_trains_to_taken(self):
        predictor = BranchPredictor()
        for _ in range(3):
            predictor.update(0x400000, taken=True)
        assert predictor.predict(0x400000)

    def test_hysteresis_survives_one_not_taken(self):
        """The Spectre property: strongly-taken survives the OOB call."""
        predictor = BranchPredictor()
        for _ in range(4):
            predictor.update(0x400000, taken=True)
        predictor.update(0x400000, taken=False)
        assert predictor.predict(0x400000)

    def test_access_reports_mispredict(self):
        predictor = BranchPredictor()
        for _ in range(4):
            predictor.update(0x400000, taken=True)
        assert predictor.access(0x400000, taken=False)  # mispredicted
        assert not predictor.access(0x400000, taken=True)

    def test_pc_aliasing_distinct(self):
        predictor = BranchPredictor()
        predictor.update(0x400000, True)
        predictor.update(0x400000, True)
        assert not predictor.predict(0x400004)  # different entry

    def test_flush(self):
        predictor = BranchPredictor()
        for _ in range(4):
            predictor.update(0x100, True)
        predictor.flush()
        assert not predictor.predict(0x100)

    def test_validation(self):
        with pytest.raises(SpectreError):
            BranchPredictor(entries=100)


class _RecordingChannel:
    """Test double capturing gadget touches."""

    chunk_bits = 5

    def __init__(self):
        self.touches: list[tuple[int, bool]] = []

    def touch(self, value, transient):
        self.touches.append((value, transient))


class TestVictim:
    def make(self, success_rate=1.0) -> tuple[SpectreV1Victim, BranchPredictor, _RecordingChannel]:
        victim = SpectreV1Victim(
            b"AB",
            rng=np.random.default_rng(0),
            window=TransientWindow(success_rate=success_rate),
        )
        return victim, BranchPredictor(), _RecordingChannel()

    def test_in_bounds_architectural_touch(self):
        victim, predictor, channel = self.make()
        fired = victim.call(0, predictor, channel)
        assert not fired
        assert channel.touches == [(victim.array1[0], False)]

    def test_untrained_oob_no_transient(self):
        victim, predictor, channel = self.make()
        fired = victim.call(victim.oob_index(0), predictor, channel)
        assert not fired
        assert channel.touches == []

    def test_trained_oob_transient_leak(self):
        victim, predictor, channel = self.make()
        for _ in range(4):
            victim.call(0, predictor, channel)
        channel.touches.clear()
        fired = victim.call(victim.oob_index(1), predictor, channel)
        assert fired
        assert channel.touches == [(victim.chunks[1], True)]

    def test_zero_success_rate_never_leaks(self):
        victim, predictor, channel = self.make(success_rate=0.0)
        for _ in range(4):
            victim.call(0, predictor, channel)
        assert not victim.call(victim.oob_index(0), predictor, channel)

    def test_oob_index_validation(self):
        victim, _, _ = self.make()
        with pytest.raises(SpectreError):
            victim.oob_index(victim.n_chunks)

    def test_requires_secret(self):
        with pytest.raises(SpectreError):
            SpectreV1Victim(b"", rng=np.random.default_rng(0))


class TestChannels:
    @pytest.mark.parametrize("cls", ALL_SPECTRE_CHANNELS)
    def test_recovers_secret(self, cls):
        machine = Machine(GOLD_6226, seed=61)
        channel = cls(machine)
        report = SpectreV1Attack(machine, channel, b"Attack!!").run()
        assert report.accuracy >= 0.85
        assert report.recovered == b"Attack!!" or report.chunks_correct >= report.chunks_total - 2

    def test_frontend_channel_is_stealthiest(self):
        """Table VII headline: the frontend channel's L1 miss rate is the
        lowest of all six channels."""
        rates = {}
        for cls in ALL_SPECTRE_CHANNELS:
            machine = Machine(GOLD_6226, seed=61)
            channel = cls(machine)
            rates[cls.__name__] = SpectreV1Attack(machine, channel, b"Secret42").run().l1_miss_rate
        frontend = rates.pop("FrontendDsbChannel")
        assert all(frontend < other for other in rates.values())

    def test_l1i_channels_stealthier_than_l1d(self):
        def rate(cls):
            machine = Machine(GOLD_6226, seed=61)
            return SpectreV1Attack(machine, cls(machine), b"Secret42").run().l1_miss_rate

        assert rate(L1iFlushReload) < rate(L1dFlushReload)
        assert rate(L1iPrimeProbe) < rate(L1dFlushReload)
        assert rate(L1iPrimeProbe) < rate(L1dLruChannel)

    def test_frontend_channel_no_steady_state_misses(self):
        """After the compulsory first fills, frontend probing adds zero
        cache misses: DSB evict/probe cycles never touch the L1I."""
        machine = Machine(GOLD_6226, seed=61)
        channel = FrontendDsbChannel(machine)
        for value in (7, 9):  # warm up: prime blocks + both gadget blocks
            channel.prepare()
            channel.touch(value, transient=True)
            channel.recover()
        before = channel.miss_counts()
        channel.prepare()
        channel.touch(9, transient=True)
        assert channel.recover() == 9
        after = channel.miss_counts()
        assert after.misses == before.misses  # probes never miss L1
        assert after.accesses > before.accesses  # MITE refills did fetch

    def test_mem_flush_reload_byte_chunks(self):
        machine = Machine(GOLD_6226, seed=61)
        assert MemFlushReload(machine).chunk_bits == 8
        assert FrontendDsbChannel(machine).chunk_bits == 5

    def test_channel_value_validation(self):
        machine = Machine(GOLD_6226, seed=61)
        channel = L1iFlushReload(machine)
        with pytest.raises(SpectreError):
            channel.touch(32, transient=True)

    def test_attack_parameter_validation(self):
        machine = Machine(GOLD_6226, seed=61)
        channel = L1iFlushReload(machine)
        with pytest.raises(SpectreError):
            SpectreV1Attack(machine, channel, b"x", trainings=0)
        with pytest.raises(SpectreError):
            SpectreV1Attack(machine, channel, b"x", attempts_per_chunk=0)


#: Table VII attack outcomes on GOLD_6226, seed 1414, secret b"K7" (four
#: 5-bit chunks, two 8-bit chunks for mem-flush-reload): recovered hex,
#: combined L1 accesses, L1 misses and ``channel_cycles.hex()``.  Any
#: change to the RNG draws, the cache replacement order or the order in
#: which cycles accumulate moves at least one of them.
_V1_PINS = {
    "mem-flush-reload": ("4b37", 12704, 673, "0x1.6085000000000p+17"),
    "l1d-flush-reload": ("4b37", 25536, 1441, "0x1.0851000000000p+17"),
    "l1d-lru": ("4b37", 25536, 1440, "0x1.148c000000000p+17"),
    "l1i-flush-reload": ("4b37", 24512, 289, "0x1.0add000000000p+16"),
    "l1i-prime-probe": ("4b37", 25152, 396, "0x1.01cc000000000p+16"),
    "frontend-dsb": ("4b37", 195686, 295, "0x1.da6c6cccccd72p+18"),
}
_V2_PIN = ("4b37", 21244, 292, "0x1.81843333332f9p+16")

#: The same frontend-dsb v1 and v2 attacks: every machine perf counter
#: (``float.hex()``) and the DSB stats (hits, misses, insertions,
#: evictions, uncacheable lookups).  These move if the frontend sweeps
#: record a report twice, skip one or record them out of order.
_FRONTEND_PERF_PINS = {
    "v1": (
        {
            "idq.mite_uops": "0x1.f7c0000000000p+11",
            "idq.dsb_uops": "0x1.ddd0000000000p+16",
            "lsd.uops": "0x1.2c50000000000p+15",
            "uops_retired.any": "0x1.41db000000000p+17",
            "dsb2mite_switches.count": "0x0.0p+0",
            "ild_stall.lcp": "0x0.0p+0",
            "idq.dsb_evictions": "0x1.1300000000000p+9",
            "lsd.flushes": "0x0.0p+0",
            "cycles": "0x1.7691b333332aap+16",
        },
        (24464, 806, 806, 550, 0),
    ),
    "v2": (
        {
            "idq.mite_uops": "0x1.c700000000000p+10",
            "idq.dsb_uops": "0x1.6440000000000p+15",
            "lsd.uops": "0x1.b800000000000p+13",
            "uops_retired.any": "0x1.e078000000000p+15",
            "dsb2mite_switches.count": "0x0.0p+0",
            "ild_stall.lcp": "0x0.0p+0",
            "idq.dsb_evictions": "0x1.b000000000000p+6",
            "lsd.flushes": "0x0.0p+0",
            "cycles": "0x1.1368666666674p+15",
        },
        (9120, 364, 364, 108, 0),
    ),
}


def _perf_pin(machine: Machine) -> tuple:
    return (
        {event: value.hex() for event, value in machine.perf.read_all().items()},
        dataclasses.astuple(machine.engine.dsb.stats),
    )


def _pin(report) -> tuple:
    return (
        report.recovered.hex(),
        report.l1.accesses,
        report.l1.misses,
        report.channel_cycles.hex(),
    )


class TestTable7GoldenPins:
    @pytest.mark.parametrize("cls", ALL_SPECTRE_CHANNELS, ids=lambda c: c.name)
    def test_v1_attack_pinned(self, cls):
        machine = Machine(GOLD_6226, seed=1414)
        attempts = 8 if cls is FrontendDsbChannel else 1
        report = SpectreV1Attack(
            machine, cls(machine), b"K7", attempts_per_chunk=attempts
        ).run()
        assert _pin(report) == _V1_PINS[cls.name]
        if cls is FrontendDsbChannel:
            assert _perf_pin(machine) == _FRONTEND_PERF_PINS["v1"]

    def test_v2_attack_pinned(self):
        machine = Machine(GOLD_6226, seed=1414)
        report = SpectreV2Attack(
            machine, FrontendDsbChannel(machine), b"K7", attempts_per_chunk=3
        ).run()
        assert _pin(report) == _V2_PIN
        assert _perf_pin(machine) == _FRONTEND_PERF_PINS["v2"]
