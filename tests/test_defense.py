"""Tests for the mitigation models and the defense evaluator."""

from __future__ import annotations

import pytest

from repro.analysis.bits import alternating_bits
from repro.channels.base import ChannelConfig
from repro.channels.eviction import MtEvictionChannel, NonMtEvictionChannel
from repro.defense.evaluation import DefenseEvaluator
from repro.defense.mitigations import (
    ALL_MITIGATIONS,
    DisableLsd,
    DisableSmt,
    IsolateDsbPerThread,
    Mitigation,
    UniformPathTiming,
)
from repro.errors import ChannelError, ConfigurationError
from repro.frontend.params import FrontendParams
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.measure.noise import QUIET_PROFILE


def defended_machine(mitigation: Mitigation, seed: int = 500) -> Machine:
    spec = mitigation.apply_spec(GOLD_6226)
    params = mitigation.apply_params(FrontendParams())
    return Machine(spec, seed=seed, params=params,
                   timing_noise=QUIET_PROFILE, smt_timing_noise=QUIET_PROFILE)


class TestMitigationTransforms:
    def test_disable_smt(self):
        spec = DisableSmt().apply_spec(GOLD_6226)
        assert not spec.smt
        assert spec.threads == spec.cores

    def test_disable_lsd(self):
        spec = DisableLsd().apply_spec(GOLD_6226)
        assert not spec.lsd_enabled

    def test_isolate_dsb(self):
        params = IsolateDsbPerThread().apply_params(FrontendParams())
        assert params.smt_isolation

    def test_uniform_path_timing(self):
        params = UniformPathTiming().apply_params(FrontendParams())
        assert params.uniform_delivery
        assert params.dsb_to_mite_penalty == 0.0
        assert params.lcp_stall == 0.0

    def test_catalogue_names_unique(self):
        names = [m.name for m in ALL_MITIGATIONS]
        assert len(names) == len(set(names)) == 4


class TestMitigationEffects:
    def test_disable_smt_blocks_mt_channels(self):
        machine = defended_machine(DisableSmt())
        with pytest.raises(ChannelError):
            MtEvictionChannel(machine)

    def test_isolation_blocks_cross_thread_eviction(self):
        """With exclusive halves the sender cannot evict receiver lines."""
        from repro.isa.program import LoopProgram

        machine = defended_machine(IsolateDsbPerThread())
        layout = machine.layout()
        result = machine.run_smt(
            LoopProgram(layout.chain(3, 6), 1000),
            LoopProgram(layout.chain(3, 3, first_slot=6), 100),
        )
        # No cross-thread eviction-driven MITE traffic (beyond cold fill).
        assert result.primary.uops_mite <= 6 * 5 * 2

    def test_uniform_timing_equalises_paths(self):
        """DSB hits and MITE misses cost the same under the defense."""
        from repro.isa.program import LoopProgram

        machine = defended_machine(UniformPathTiming())
        layout = machine.layout()
        program = LoopProgram(layout.chain(3, 8), 200)
        warm = machine.run_loop(program)  # includes cold fill
        again = machine.run_loop(program)  # all hits, padded
        per_iter_warm = warm.cycles / warm.iterations
        per_iter_again = again.cycles / again.iterations
        assert per_iter_again == pytest.approx(per_iter_warm, rel=0.02)

    def test_uniform_timing_breaks_stealthy_eviction(self):
        """The path-timing signal disappears; only work-volume channels
        survive (documented residual)."""
        machine = defended_machine(UniformPathTiming())
        channel = NonMtEvictionChannel(
            machine,
            ChannelConfig(disturb_rate=0.0),
            variant="stealthy",
        )
        # Calibration either finds no signal at all or a margin too thin
        # to decode against even minimal noise.
        try:
            channel.calibrate(8)
        except ChannelError:
            return  # identical means: channel carries nothing
        assert channel.decoder.margin < 5.0


class TestDefenseEvaluator:
    @pytest.fixture(scope="class")
    def reports(self):
        evaluator = DefenseEvaluator(message_bits=16)
        return {r.mitigation_name: r for r in evaluator.evaluate_all(ALL_MITIGATIONS)}

    def test_rejects_an_empty_message(self, capsys):
        """No bits to send is a usage error, not every channel "broken"."""
        with pytest.raises(ConfigurationError, match="message_bits must be >= 1"):
            DefenseEvaluator(message_bits=0)
        from repro.cli import main

        assert main(["defense", "--bits", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "message_bits must be >= 1, got 0" in captured.err

    def test_baseline_all_intact(self, reports):
        baseline = reports["baseline"]
        assert all(o.status == "intact" for o in baseline.outcomes)
        assert baseline.set_leak_accuracy > 0.9

    def test_disable_smt_blocks_only_mt(self, reports):
        report = reports["disable-smt"]
        assert set(report.blocked_channels) == {"mt-eviction", "mt-misalignment"}
        assert "non-mt-eviction" in report.surviving_channels
        assert report.set_leak_accuracy == 0.0

    def test_isolation_kills_set_leak_not_activity(self, reports):
        report = reports["isolate-dsb"]
        # Set-selective side channel drops to chance (1/16)...
        assert report.set_leak_accuracy <= 2 / 16
        # ...but the cooperative activity channels survive.
        assert "mt-eviction" in report.surviving_channels

    def test_uniform_timing_costs_performance(self, reports):
        report = reports["uniform-path-timing"]
        assert report.benign_slowdown > 2.0
        assert report.set_leak_accuracy <= 2 / 16

    def test_disable_lsd_costs_energy_not_time(self, reports):
        report = reports["disable-lsd"]
        assert report.benign_energy_ratio > 1.1  # the LSD saves power
        assert report.benign_slowdown < 1.2
