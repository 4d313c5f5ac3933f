"""Tests for machine specs (Table I), cores, and the Machine facade."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.frontend.params import FrontendParams
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine
from repro.machine.specs import (
    ALL_SPECS,
    GOLD_6226,
    SGX_SPECS,
    SMT_SPECS,
    XEON_E2174G,
    XEON_E2286G,
    XEON_E2288G,
    MachineSpec,
    spec_by_name,
)


class TestTable1Specs:
    def test_four_machines(self):
        assert len(ALL_SPECS) == 4

    def test_gold_6226(self):
        assert GOLD_6226.microarchitecture == "Cascade Lake"
        assert GOLD_6226.cores == 12
        assert GOLD_6226.threads == 24
        assert GOLD_6226.frequency_ghz == 2.7
        assert GOLD_6226.lsd_enabled
        assert GOLD_6226.smt
        assert not GOLD_6226.sgx

    def test_lsd_disabled_machines(self):
        assert not XEON_E2174G.lsd_enabled
        assert not XEON_E2286G.lsd_enabled

    def test_azure_e2288g_no_smt(self):
        assert not XEON_E2288G.smt
        assert XEON_E2288G.threads == XEON_E2288G.cores
        assert XEON_E2288G.lsd_enabled

    def test_sgx_machines(self):
        assert SGX_SPECS == (XEON_E2174G, XEON_E2286G, XEON_E2288G)
        assert GOLD_6226 not in SGX_SPECS

    def test_smt_machines_exclude_azure(self):
        assert XEON_E2288G not in SMT_SPECS

    def test_cycles_to_seconds(self):
        assert GOLD_6226.cycles_to_seconds(2.7e9) == pytest.approx(1.0)

    def test_with_lsd_toggle(self):
        off = GOLD_6226.with_lsd(False)
        assert not off.lsd_enabled
        assert off.with_lsd(True) == GOLD_6226

    def test_spec_by_name(self):
        assert spec_by_name("gold 6226") is GOLD_6226
        assert spec_by_name("E-2174G") is XEON_E2174G
        assert spec_by_name("e_2288g") is XEON_E2288G
        with pytest.raises(ConfigurationError):
            spec_by_name("i7-9700K")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MachineSpec("bad", "x", cores=0, threads=0, frequency_ghz=1,
                        lsd_enabled=False, smt=False, sgx=False)
        with pytest.raises(ConfigurationError):
            MachineSpec("bad", "x", cores=4, threads=6, frequency_ghz=1,
                        lsd_enabled=False, smt=True, sgx=False)


class TestCore:
    """The machine's one simulated core: its engine's threads, the
    thread and SMT checks, and the runtime LSD toggle."""

    def test_thread_count_follows_smt(self):
        assert Machine(GOLD_6226).engine.n_threads == 2
        assert Machine(XEON_E2288G).engine.n_threads == 1

    def test_smt_rejected_on_azure(self):
        machine = Machine(XEON_E2288G)
        program = LoopProgram(machine.layout().chain(3, 2), 5)
        with pytest.raises(ConfigurationError):
            machine.run_loop(program, smt_active=True)
        with pytest.raises(ConfigurationError):
            machine.run_loops((program,), smt_active=True)

    def test_missing_thread_rejected(self):
        machine = Machine(XEON_E2288G)
        program = LoopProgram(machine.layout().chain(3, 2), 5)
        with pytest.raises(ConfigurationError):
            machine.run_loop(program, thread=1)
        with pytest.raises(ConfigurationError):
            machine.run_loops((program,), thread=1)

    def test_lsd_toggle(self):
        machine = Machine(GOLD_6226)
        assert machine.lsd_enabled
        machine.set_lsd_enabled(False)
        assert not machine.lsd_enabled


class TestMachineFacade:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
    def test_inputs_pass_through(self, spec):
        """The machine keeps the caller's params object, its L1I is its
        engine's, and its LSDs are on exactly when the spec says so."""
        params = FrontendParams()
        machine = Machine(spec, params=params)
        assert machine.params is params
        assert machine.l1i is machine.engine.l1i
        assert all(
            lsd.enabled is spec.lsd_enabled for lsd in machine.engine.lsds.values()
        )

    def test_run_loop_records_perf(self):
        machine = Machine(GOLD_6226, seed=1)
        program = LoopProgram(machine.layout().chain(3, 8), 50)
        report = machine.run_loop(program)
        assert machine.perf.read("uops_retired.any") == report.total_uops
        assert machine.perf.read("cycles") == pytest.approx(report.cycles)

    def test_reset_restores_cold_state(self):
        machine = Machine(GOLD_6226, seed=1)
        program = LoopProgram(machine.layout().chain(3, 8), 50)
        first = machine.run_loop(program)
        machine.reset()
        second = machine.run_loop(program)
        assert second.uops_mite == first.uops_mite  # cold fill repeats

    def test_seed_reproducibility(self):
        a = Machine(GOLD_6226, seed=99).timer.measure(1000.0)
        b = Machine(GOLD_6226, seed=99).timer.measure(1000.0)
        assert a.measured_cycles == b.measured_cycles

    def test_rapl_respects_spec_frequency(self):
        machine = Machine(XEON_E2286G)
        assert machine.rapl.frequency_hz == pytest.approx(4.0e9)
