"""Tests for the DSB-footprint side channel (key extraction)."""

from __future__ import annotations

import pytest

from repro.analysis.bits import random_bits
from repro.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226, XEON_E2174G
from repro.sidechannel import DsbFootprintAttack, SquareAndMultiplyVictim


def machine(seed: int = 7, spec=GOLD_6226) -> Machine:
    return Machine(spec, seed=seed)


class TestVictim:
    def test_processes_bits_in_order(self):
        m = machine()
        victim = SquareAndMultiplyVictim(m, [1, 0, 1])
        assert victim.bits_remaining == 3
        victim.process_next_bit()
        assert victim.bits_remaining == 2

    def test_one_bit_executes_multiply(self):
        m = machine()
        victim = SquareAndMultiplyVictim(m, [1])
        report = victim.process_next_bit()
        expected = (4 + 3) * 5 * victim.ROUTINE_ITERATIONS
        assert report.total_uops == expected

    def test_zero_bit_skips_multiply(self):
        m = machine()
        victim = SquareAndMultiplyVictim(m, [0])
        report = victim.process_next_bit()
        assert report.total_uops == 4 * 5 * victim.ROUTINE_ITERATIONS

    def test_exhaustion_raises(self):
        m = machine()
        victim = SquareAndMultiplyVictim(m, [0])
        victim.process_next_bit()
        with pytest.raises(ConfigurationError):
            victim.process_next_bit()

    def test_reset(self):
        m = machine()
        victim = SquareAndMultiplyVictim(m, [0, 1])
        victim.process_next_bit()
        victim.reset()
        assert victim.bits_remaining == 2

    def test_validation(self):
        m = machine()
        with pytest.raises(ConfigurationError):
            SquareAndMultiplyVictim(m, [])
        with pytest.raises(ConfigurationError):
            SquareAndMultiplyVictim(m, [0, 2])
        with pytest.raises(ConfigurationError):
            SquareAndMultiplyVictim(m, [1], square_set=5, multiply_set=5)


class TestDsbFootprintAttack:
    def test_full_key_recovery(self):
        m = machine(seed=2024)
        key = random_bits(48, m.rngs.stream("key"))
        victim = SquareAndMultiplyVictim(m, key)
        recovery = DsbFootprintAttack(m, victim, attempts=5).run()
        assert recovery.accuracy == 1.0
        assert list(recovery.recovered_bits) == key

    def test_recovered_int(self):
        m = machine(seed=2024)
        victim = SquareAndMultiplyVictim(m, [1, 0, 1, 1])
        recovery = DsbFootprintAttack(m, victim, attempts=3).run()
        assert recovery.recovered_int == 0b1011

    def test_works_without_lsd(self):
        m = machine(seed=11, spec=XEON_E2174G)
        key = random_bits(32, m.rngs.stream("key"))
        victim = SquareAndMultiplyVictim(m, key)
        recovery = DsbFootprintAttack(m, victim, attempts=5).run()
        assert recovery.accuracy > 0.9

    def test_single_attempt_mostly_right(self):
        m = machine(seed=5)
        key = random_bits(32, m.rngs.stream("key"))
        victim = SquareAndMultiplyVictim(m, key)
        recovery = DsbFootprintAttack(m, victim, attempts=1).run()
        assert recovery.accuracy > 0.8

    def test_no_l1i_misses_beyond_warmup(self):
        """The side channel shares the frontend attacks' cache stealth."""
        m = machine(seed=2024)
        key = random_bits(16, m.rngs.stream("key"))
        victim = SquareAndMultiplyVictim(m, key)
        attack = DsbFootprintAttack(m, victim, attempts=1)
        attack.run()
        warm_misses = m.l1i.stats.misses
        victim.reset()
        attack.victim.reset()
        DsbFootprintAttack(m, victim, attempts=1).run()
        assert m.l1i.stats.misses == warm_misses  # steady state: none

    def test_validation(self):
        m = machine()
        victim = SquareAndMultiplyVictim(m, [1])
        with pytest.raises(ConfigurationError):
            DsbFootprintAttack(m, victim, attempts=0)
        with pytest.raises(ConfigurationError):
            DsbFootprintAttack(m, victim, prime_ways=9)
