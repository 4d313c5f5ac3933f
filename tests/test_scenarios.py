"""Tests for the declarative scenario registry (``repro.scenarios``).

Four contracts from the scenario subsystem's design:

* **Specs are data** — JSON round trips are byte-identical, unknown
  fields and impossible thresholds are rejected at parse time;
* **The registry is the single name→spec source** — idempotent
  registration, helpful unknown-name errors;
* **Runs are deterministic** — each builtin scenario replays
  byte-identically against a committed fixture;
* **The builtins meet their acceptance criteria** — a reduced-trial
  smoke run of each scenario passes in tier-1 time.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.outcome import ScenarioOutcome, SuccessCriteria, leak_kbps
from repro.errors import ConfigurationError
from repro.exec import SerialExecutor
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226
from repro.obs import MetricsRegistry, use_registry
from repro.scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioSpec,
    ScenarioSweepSpec,
    all_specs,
    get,
    names,
    register,
    run_scenario,
    run_trial,
    unregister,
)
from repro.spectre import FrontendDsbChannel, SpectreV1Attack
from tests._replay import assert_replay

def _spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="unit-test",
        kind="channel",
        title="unit test scenario",
        machine="Gold 6226",
        criteria=SuccessCriteria(max_error_rate=0.5),
        trials=1,
        base_seed=7,
        params={"channel": "eviction", "bits": 16},
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


# ----------------------------------------------------------------------
# outcome accounting (the shared AttackReport/TransmissionResult fix)
# ----------------------------------------------------------------------
class TestOutcome:
    def test_leak_kbps_units(self):
        # 1000 bits in 1e9 cycles at 1 GHz is one second: 1 Kbps.
        assert leak_kbps(1000, 1e9, 1e9) == pytest.approx(1.0)

    def test_from_counts_defaults_error_to_one_minus_accuracy(self):
        outcome = ScenarioOutcome.from_counts(
            label="x", machine="m", units_total=10, units_correct=9,
            bits=10, cycles=100.0, frequency_hz=1e9,
        )
        assert outcome.accuracy == pytest.approx(0.9)
        assert outcome.error_rate == pytest.approx(0.1)

    def test_aggregate_pools_counts_and_bits(self):
        parts = [
            ScenarioOutcome.from_counts(
                label="x", machine="m", units_total=10, units_correct=10,
                bits=10, cycles=100.0, frequency_hz=1e9,
            ),
            ScenarioOutcome.from_counts(
                label="x", machine="m", units_total=10, units_correct=8,
                bits=10, cycles=300.0, frequency_hz=1e9,
            ),
        ]
        pooled = ScenarioOutcome.aggregate(parts)
        assert pooled.units_total == 20
        assert pooled.accuracy == pytest.approx(0.9)
        assert pooled.cycles == pytest.approx(400.0)

    def test_criteria_require_at_least_one_threshold(self):
        with pytest.raises(ConfigurationError):
            SuccessCriteria()

    def test_criteria_reject_out_of_range_rates(self):
        with pytest.raises(ConfigurationError):
            SuccessCriteria(min_accuracy=1.5)

    def test_criteria_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="min_acuracy"):
            SuccessCriteria.from_dict({"min_acuracy": 0.9})

    def test_failures_name_each_unmet_threshold(self):
        outcome = ScenarioOutcome.from_counts(
            label="x", machine="m", units_total=10, units_correct=5,
            bits=10, cycles=1e9, frequency_hz=1e9,
        )
        criteria = SuccessCriteria(min_accuracy=0.9, min_kbps=1.0)
        failed = criteria.failures(outcome)
        assert len(failed) == 2
        assert not criteria.passed(outcome)

    def test_spectre_report_kbps_matches_outcome(self, gold):
        """AttackReport.leak_kbps flows through the shared helper."""
        report = SpectreV1Attack(
            gold, FrontendDsbChannel(gold), b"ab"
        ).run()
        outcome = report.to_outcome(gold.spec.name)
        assert report.leak_kbps == pytest.approx(outcome.kbps)
        assert outcome.bits == report.chunks_total * report.chunk_bits


# ----------------------------------------------------------------------
# specs and registry
# ----------------------------------------------------------------------
class TestSpec:
    def test_json_round_trip_is_byte_identical(self):
        for spec in BUILTIN_SCENARIOS:
            text = spec.to_json()
            again = ScenarioSpec.from_json(text)
            assert again == spec
            assert again.to_json() == text

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            _spec(kind="rowhammer")

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError, match="trials"):
            _spec(trials=0)

    def test_rejects_unknown_payload_fields(self):
        payload = _spec().to_dict()
        payload["colour"] = "red"
        with pytest.raises(ConfigurationError, match="colour"):
            ScenarioSpec.from_dict(payload)

    def test_rejects_missing_criteria(self):
        payload = _spec().to_dict()
        del payload["criteria"]
        with pytest.raises(ConfigurationError, match="criteria"):
            ScenarioSpec.from_dict(payload)

    def test_params_are_frozen_copies(self):
        params = {"channel": "eviction"}
        spec = _spec(params=params)
        params["channel"] = "misalignment"
        assert spec.params["channel"] == "eviction"

    def test_with_overrides_merges_params(self):
        spec = _spec().with_overrides(params={"bits": 32}, trials=5)
        assert spec.params["bits"] == 32
        assert spec.params["channel"] == "eviction"
        assert spec.trials == 5
        assert _spec().trials == 1  # original untouched


class TestRegistry:
    def test_builtins_are_registered(self):
        assert names() == (
            "frontal",
            "retirement-channel",
            "spectre-v2",
            "synth-dsb-contention",
        )
        assert tuple(spec.name for spec in all_specs()) == names()

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigurationError, match="retirement-channel"):
            get("nope")

    def test_register_is_idempotent_on_identical_specs(self):
        register(BUILTIN_SCENARIOS[0])  # same value: no error
        assert names().count("frontal") == 1

    def test_register_rejects_conflicting_redefinition(self):
        conflicting = BUILTIN_SCENARIOS[0].with_overrides(trials=99)
        with pytest.raises(ConfigurationError, match="already registered"):
            register(conflicting)

    def test_unregister_then_register(self):
        spec = _spec(name="ephemeral")
        register(spec)
        assert "ephemeral" in names()
        unregister("ephemeral")
        assert "ephemeral" not in names()


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------
class TestRunners:
    def test_unknown_runner_params_are_rejected(self):
        spec = _spec(params={"channel": "eviction", "wombat": 3})
        with pytest.raises(ConfigurationError, match="wombat"):
            run_trial(spec, seed=1)

    def test_channel_scenario_needs_a_channel(self):
        spec = _spec(params={"bits": 16})
        with pytest.raises(ConfigurationError, match="channel"):
            run_trial(spec, seed=1)

    def test_spectre_v2_rejects_unknown_medium(self):
        spec = _spec(
            kind="spectre-v2",
            params={"secret": "ab", "channel": "telepathy"},
        )
        with pytest.raises(ConfigurationError, match="telepathy"):
            run_trial(spec, seed=1)

    def test_run_scenario_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError, match="trials"):
            run_scenario(get("retirement-channel"), trials=0)

    def test_run_scenario_records_metrics(self):
        registry = MetricsRegistry()
        spec = get("retirement-channel").with_overrides(params={"bits": 32})
        result = run_scenario(
            spec, trials=2, base_seed=5, registry=registry
        )
        assert len(result.per_trial) == 2
        snapshot = {
            (m["name"], m["tags"].get("scenario")): m["value"]
            for m in registry.snapshot()["metrics"]
        }
        assert snapshot[("scenario.runs", "retirement-channel")] == 1
        assert snapshot[("scenario.trials", "retirement-channel")] == 2
        assert snapshot[("scenario.accuracy", "retirement-channel")] == (
            pytest.approx(result.outcome.accuracy)
        )

    def test_trials_pool_into_the_outcome(self):
        spec = get("retirement-channel").with_overrides(params={"bits": 32})
        result = run_scenario(spec, trials=2, base_seed=5)
        assert result.outcome.bits == sum(o.bits for o in result.per_trial)
        assert result.outcome.units_total == sum(
            o.units_total for o in result.per_trial
        )


# ----------------------------------------------------------------------
# tier-1 smoke: every builtin meets its criteria at reduced trials
# ----------------------------------------------------------------------
class TestBuiltinSmoke:
    @pytest.mark.parametrize(
        "name", [spec.name for spec in BUILTIN_SCENARIOS]
    )
    def test_builtin_passes_criteria(self, name):
        result = run_scenario(get(name), trials=1, registry=MetricsRegistry())
        assert result.passed, result.failures


# ----------------------------------------------------------------------
# deterministic replay: one fixture per scenario
# ----------------------------------------------------------------------
#: Reduced grids so the replay sweeps stay tier-1 fast.
_REPLAY_GRIDS = {
    "frontal": {"steps_per_branch": [3]},
    "retirement-channel": {"bits": [64]},
    "spectre-v2": {"attempts_per_chunk": [1]},
    "synth-dsb-contention": {"bits": [16]},
}


class TestReplay:
    @pytest.mark.parametrize(
        "name", [spec.name for spec in BUILTIN_SCENARIOS]
    )
    def test_scenario_sweep_replays(self, name):
        """The sweep's rows are byte-identical to the committed fixture."""
        sweep_spec = ScenarioSweepSpec(
            scenario=name, grid=_REPLAY_GRIDS[name], trials=1, base_seed=3
        )
        # Rows only: the registry snapshot carries wall-clock sim.latency.
        with use_registry(MetricsRegistry()):
            table = sweep_spec.build_sweep().run(executor=SerialExecutor())
        assert_replay(f"scenario_{name}", table)


# ----------------------------------------------------------------------
# scenario sweeps as service payloads
# ----------------------------------------------------------------------
class TestScenarioSweepSpec:
    def test_payload_round_trip(self):
        spec = ScenarioSweepSpec(
            scenario="spectre-v2",
            grid={"attempts_per_chunk": [1, 3]},
            trials=2,
            base_seed=9,
            label="grid",
        )
        assert ScenarioSweepSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ConfigurationError, match="nope"):
            ScenarioSweepSpec(scenario="nope", grid={"bits": [1]})

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError, match="grid"):
            ScenarioSweepSpec(scenario="frontal", grid={})

    def test_rejects_unknown_payload_fields(self):
        with pytest.raises(ConfigurationError, match="bitz"):
            ScenarioSweepSpec.from_dict(
                {"scenario": "frontal", "grid": {"steps_per_branch": [3]},
                 "bitz": 4}
            )

    def test_sweep_rows_match_direct_trials(self):
        spec = ScenarioSweepSpec(
            scenario="retirement-channel",
            grid={"bits": [32, 64]},
            trials=1,
            base_seed=3,
        )
        table = spec.build_sweep().run(executor=SerialExecutor())
        rows = {row["bits"]: row for row in table.rows()}
        assert set(rows) == {32, 64}
        for bits, row in rows.items():
            assert row["bits_mean"] == pytest.approx(float(bits))


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for spec in BUILTIN_SCENARIOS:
            assert spec.name in out

    def test_describe_json_is_canonical(self, capsys):
        from repro.cli import main

        assert main(["scenario", "describe", "frontal", "--json"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == get("frontal").to_json()

    def test_run_json_and_metrics_out(self, capsys, tmp_path):
        from repro.cli import main

        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["scenario", "run", "retirement-channel", "--trials", "1",
             "--json", "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["trials"] == 1
        snapshot = json.loads(metrics_path.read_text())
        assert any(
            m["name"] == "scenario.runs" for m in snapshot["metrics"]
        )

    def test_run_unknown_name_fails_cleanly(self, capsys):
        from repro.cli import main

        assert main(["scenario", "run", "nope"]) == 1
        assert "registered scenarios" in capsys.readouterr().err

    def test_run_failing_criteria_exits_nonzero(self, capsys):
        from repro.cli import main

        impossible = _spec(
            name="impossible",
            criteria=SuccessCriteria(min_kbps=1e12),
            params={"channel": "eviction", "bits": 16},
        )
        register(impossible)
        try:
            assert main(["scenario", "run", "impossible"]) == 1
            out = capsys.readouterr().out
            assert "FAIL" in out
        finally:
            unregister("impossible")
