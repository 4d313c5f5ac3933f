"""Tests for ``repro.synth`` — genome, generator, oracle, search, CLI.

The synthesiser's contract is determinism end to end: a campaign is a
pure function of ``(SearchConfig, executor)`` where the executor choice
must not matter.  The tests here pin that claim (serial vs parallel vs
cached byte-identity), the genome's structural invariants (work-balanced
bit bodies), the oracle's classification against the defense layer, and
the export path that turns a finding into a registrable scenario.
"""

from __future__ import annotations

import json

import pytest

from repro.defense import (
    MitigationStack,
    UniformPathTiming,
    defended_machine,
    mitigation_from_dict,
)
from repro.defense.evaluation import evaluate_spectre_v2
from repro.errors import ConfigurationError, ReproError
from repro.exec import ParallelExecutor, ResultCache, SerialExecutor
from repro.isa.layout import BlockChainLayout
from repro.machine.machine import Machine
from repro.machine.specs import GOLD_6226, spec_by_name
from repro.obs import MetricsRegistry, use_registry
from repro.scenarios.spec import ScenarioSpec
from repro.synth import (
    CandidateProgram,
    GeneratorConfig,
    LeakageOracle,
    OracleConfig,
    ProgramGenerator,
    SearchConfig,
    SearchReport,
    Segment,
    SynthSearch,
    path_fingerprint,
    shrink,
)
from repro.cli import main

#: The genome the seed-7 campaign discovered and shrank (also registered
#: as the ``synth-dsb-contention`` builtin scenario): a 5-vs-4 block
#: DSB-set-28 contention sender.
WINNER = {
    "decoy_stride": 19,
    "encode": [
        {"count": 4, "dsb_set": 28, "kind": "std", "lcp_sets": 5,
         "misaligned": False}
    ],
    "iterations": 1,
    "probe": [
        {"count": 5, "dsb_set": 28, "kind": "std", "lcp_sets": 2,
         "misaligned": False}
    ],
}

#: A quick campaign used by every search test (~a dozen oracle runs).
SMOKE = dict(seed=7, budget=8, bits=24, max_findings=1, shrink_budget=16)


def _candidate() -> CandidateProgram:
    return CandidateProgram.from_dict(WINNER)


# ----------------------------------------------------------------------
# genome
# ----------------------------------------------------------------------
class TestSegment:
    def test_round_trip(self):
        segment = Segment(kind="lcp", dsb_set=17, count=3, misaligned=True,
                          lcp_sets=6)
        assert Segment.from_dict(segment.to_dict()) == segment

    def test_rejects_unknown_field(self):
        with pytest.raises(ConfigurationError, match="unknown segment"):
            Segment.from_dict({"kind": "std", "ways": 8})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "avx"},
            {"dsb_set": 32},
            {"dsb_set": -1},
            {"count": 0},
            {"count": 13},
            {"lcp_sets": 0},
        ],
    )
    def test_rejects_out_of_grammar_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            Segment(**kwargs)


class TestCandidateProgram:
    def test_round_trip_and_canonical_key(self):
        candidate = _candidate()
        assert CandidateProgram.from_dict(candidate.to_dict()) == candidate
        assert CandidateProgram.from_json(candidate.to_json()) == candidate
        assert candidate.key() == candidate.to_json()
        assert json.loads(candidate.key()) == json.loads(
            json.dumps(WINNER, sort_keys=True)
        )

    def test_rejects_unknown_and_missing_fields(self):
        with pytest.raises(ConfigurationError, match="unknown candidate"):
            CandidateProgram.from_dict({**WINNER, "extra": 1})
        with pytest.raises(ConfigurationError, match="missing required"):
            CandidateProgram.from_dict({"probe": WINNER["probe"]})

    def test_decoy_is_encode_remapped_by_stride(self):
        candidate = _candidate()
        for encode, decoy in zip(candidate.encode, candidate.decoy):
            assert decoy.dsb_set == (encode.dsb_set + 19) % 32
            assert decoy.count == encode.count
            assert decoy.kind == encode.kind

    def test_bit_bodies_are_work_balanced(self):
        """The stealthy property: both bodies carry identical work."""
        zero, one = _candidate().bodies(BlockChainLayout())
        assert len(zero) == len(one) == _candidate().total_blocks
        # Same instruction multiset — only addresses (DSB sets) differ.
        assert sorted(len(b.instructions) for b in zero) == sorted(
            len(b.instructions) for b in one
        )

    def test_cost_is_blocks_times_iterations(self):
        candidate = _candidate()
        assert candidate.total_blocks == 2 * 5 + 4
        assert candidate.cost == 14 * 1

    @pytest.mark.parametrize(
        "kwargs",
        [{"decoy_stride": 0}, {"decoy_stride": 32}, {"iterations": 0},
         {"iterations": 201}],
    )
    def test_rejects_out_of_range_scalars(self, kwargs):
        payload = {**WINNER, **kwargs}
        with pytest.raises(ConfigurationError):
            CandidateProgram.from_dict(payload)


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
class TestProgramGenerator:
    def test_generate_is_a_pure_function_of_seed_and_index(self):
        a = ProgramGenerator(3)
        b = ProgramGenerator(3)
        assert [a.generate(i) for i in range(8)] == [
            b.generate(i) for i in range(8)
        ]
        # Out-of-order replay sees the same universe.
        assert b.generate(2) == a.generate(2)

    def test_distinct_indices_draw_distinct_candidates(self):
        generator = ProgramGenerator(3)
        keys = {generator.generate(i).key() for i in range(8)}
        assert len(keys) > 4

    def test_mutations_are_deterministic_and_valid(self):
        generator = ProgramGenerator(5)
        a, b = generator.generate(0), generator.generate(1)
        first = [generator.mutate(a, b, i) for i in range(12)]
        second = [ProgramGenerator(5).mutate(a, b, i) for i in range(12)]
        assert first == second  # construction already validates grammar
        assert any(m != a for m in first)

    def test_config_round_trip_rejects_unknown(self):
        config = GeneratorConfig(lcp_rate=0.5, iterations=(4,))
        assert GeneratorConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ConfigurationError, match="unknown generator"):
            GeneratorConfig.from_dict({"temperature": 1.0})


# ----------------------------------------------------------------------
# defense layer satellites: stacks and dict construction
# ----------------------------------------------------------------------
class TestMitigationFromDict:
    def test_none_and_empty_mean_undefended(self):
        assert mitigation_from_dict(None) is None
        assert mitigation_from_dict({"mitigations": []}) is None

    def test_single_name_yields_the_singleton(self):
        mitigation = mitigation_from_dict(
            {"mitigations": ["uniform-path-timing"]}
        )
        assert isinstance(mitigation, UniformPathTiming)

    def test_multiple_names_compose_a_stack(self):
        stack = mitigation_from_dict(
            {"mitigations": ["uniform-path-timing", "disable-lsd"]}
        )
        assert isinstance(stack, MitigationStack)
        assert stack.name == "uniform-path-timing+disable-lsd"

    def test_rejects_unknown_names_and_fields(self):
        with pytest.raises(ConfigurationError, match="unknown mitigation"):
            mitigation_from_dict({"mitigations": ["nope"]})
        with pytest.raises(ConfigurationError, match="unknown defense"):
            mitigation_from_dict({"mitigation": ["disable-lsd"]})
        with pytest.raises(ConfigurationError):
            mitigation_from_dict({"mitigations": "disable-lsd"})

    def test_defended_machine_accepts_dict_and_instance(self):
        spec = spec_by_name("Gold 6226")
        defended = defended_machine(
            spec, 0, {"mitigations": ["uniform-path-timing"]}
        )
        baseline = defended_machine(spec, 0, None)
        assert isinstance(defended, Machine)
        assert isinstance(baseline, Machine)

    def test_evaluate_spectre_v2_rejects_bare_string(self):
        with pytest.raises(ReproError, match="sequence"):
            evaluate_spectre_v2(GOLD_6226, defenses="retpoline")


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
class TestLeakageOracle:
    def test_winner_is_intact_undefended(self):
        oracle = LeakageOracle(OracleConfig(bits=24))
        verdict = oracle.score(_candidate(), seed=7)
        assert verdict.status == "intact"
        assert verdict.leaks
        assert verdict.kbps > 100
        assert verdict.outcome is not None

    def test_uniform_path_timing_breaks_the_dsb_winner(self):
        oracle = LeakageOracle(OracleConfig(bits=24))
        verdict = oracle.score(
            _candidate(), seed=7,
            defense={"mitigations": ["uniform-path-timing"]},
        )
        assert verdict.status in ("broken", "degraded")
        assert not verdict.leaks

    def test_fingerprint_reflects_frontend_transitions(self):
        machine = Machine(GOLD_6226, seed=7)
        fingerprint = path_fingerprint(machine, _candidate())
        bit0, bit1 = fingerprint.split("|")
        assert bit1.endswith("ev+.fl0.cap0.lcp0")  # 1-bit evicts the set
        assert "ev0" in bit0  # 0-bit decoy does not

    def test_metrics_are_flat_and_json_safe(self):
        verdict = LeakageOracle(OracleConfig(bits=24)).score(
            _candidate(), seed=7
        )
        metrics = verdict.metrics()
        json.dumps(metrics)
        assert set(metrics) == {
            "status", "kbps", "error_rate", "accuracy", "cycles",
            "fingerprint",
        }

    def test_config_round_trip_and_validation(self):
        config = OracleConfig(machine="i7-8700", bits=16, training_bits=8)
        assert OracleConfig.from_json(config.to_json()) == config
        with pytest.raises(ConfigurationError):
            OracleConfig(bits=0)
        with pytest.raises(ConfigurationError):
            OracleConfig(training_bits=2)


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
class TestShrink:
    def test_minimized_form_still_leaks_and_is_no_larger(self):
        oracle = LeakageOracle(OracleConfig(bits=24))
        fat = CandidateProgram.from_dict({**WINNER, "iterations": 6})
        minimized, steps = shrink(fat, oracle, 7, budget=32)
        assert minimized.cost <= fat.cost
        assert steps <= 32
        seed_name = f"synth/eval/{minimized.key()}"
        from repro.rng import derive_seed

        assert oracle.score(minimized, derive_seed(7, seed_name)).leaks

    def test_zero_budget_is_a_no_op(self):
        oracle = LeakageOracle(OracleConfig(bits=24))
        minimized, steps = shrink(_candidate(), oracle, 7, budget=0)
        assert minimized == _candidate()
        assert steps == 0


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
class TestSynthSearch:
    def test_smoke_campaign_rediscovers_a_frontend_leak(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            report = SynthSearch(SearchConfig(**SMOKE)).run()
        assert report.findings, "smoke budget failed to find a leak"
        finding = report.findings[0]
        assert finding.undefended["status"] == "intact"
        # Every finding carries its verdict under the configured stack.
        assert "uniform-path-timing" in finding.defenses
        snapshot = {m["name"] for m in registry.snapshot()["metrics"]}
        assert {"synth.candidates", "synth.novel", "synth.finds",
                "synth.corpus"} <= snapshot

    def test_serial_and_parallel_reports_are_byte_identical(self):
        serial = SynthSearch(SearchConfig(**SMOKE)).run(
            executor=SerialExecutor()
        )
        parallel = SynthSearch(SearchConfig(**SMOKE)).run(
            executor=ParallelExecutor(jobs=2)
        )
        assert serial.to_json() == parallel.to_json()

    def test_cache_resume_replays_byte_identical(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = SynthSearch(SearchConfig(**SMOKE)).run(cache=cache)
        search = SynthSearch(SearchConfig(**SMOKE))
        assert search.last_stats is None
        second = search.run(cache=cache)
        assert first.to_json() == second.to_json()
        assert search.last_stats is not None
        assert search.last_stats.cache_hits == search.last_stats.points

    def test_report_round_trips_through_its_json(self):
        report = SynthSearch(SearchConfig(**SMOKE)).run()
        decoded = SearchReport.from_json(report.to_json())
        assert decoded == report
        assert decoded.to_json() == report.to_json()

    def test_corpus_novelty_is_keyed_on_fingerprints(self):
        report = SynthSearch(SearchConfig(**SMOKE)).run()
        assert len(report.corpus) == len(report.fingerprints)
        machine = Machine(GOLD_6226, seed=7)
        recomputed = {
            path_fingerprint(machine, candidate)
            for candidate in report.corpus
        }
        assert recomputed == set(report.fingerprints)

    def test_config_round_trip_rejects_unknown(self):
        config = SearchConfig(**SMOKE)
        assert SearchConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ConfigurationError, match="unknown search"):
            SearchConfig.from_dict({"fuel": 10})

    def test_scenario_export_round_trips_and_passes(self):
        report = SynthSearch(SearchConfig(**SMOKE)).run()
        payload = report.scenario_payloads()[0]
        spec = ScenarioSpec.from_dict(payload)
        assert spec.kind == "synth"
        from repro.scenarios.runners import run_scenario

        result = run_scenario(spec, trials=1, registry=MetricsRegistry())
        assert result.passed, result.failures


# ----------------------------------------------------------------------
# the synth scenario kind
# ----------------------------------------------------------------------
class TestSynthScenarioKind:
    def _spec(self, **params) -> ScenarioSpec:
        from repro.analysis.outcome import SuccessCriteria

        return ScenarioSpec(
            name="t", kind="synth", title="t", machine="Gold 6226",
            criteria=SuccessCriteria(max_error_rate=0.2),
            base_seed=7,
            params={"candidate": WINNER, "bits": 24, **params},
        )

    def test_requires_a_candidate(self):
        from repro.scenarios.runners import run_trial

        spec = self._spec()
        object.__setattr__(spec, "params", {"bits": 24})
        with pytest.raises(ConfigurationError, match="candidate"):
            run_trial(spec, 0)

    def test_defended_replay_reports_the_broken_channel(self):
        from repro.scenarios.runners import run_trial

        outcome = run_trial(
            self._spec(defense={"mitigations": ["uniform-path-timing"]}), 7
        )
        assert outcome.error_rate > 0.2  # the stack breaks this genome

    def test_rejects_unknown_params(self):
        from repro.scenarios.runners import run_trial

        with pytest.raises(ConfigurationError, match="unknown synth"):
            run_trial(self._spec(volume=11), 0)


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
class TestCli:
    def test_synth_run_json_is_deterministic(self, capsys, tmp_path):
        argv = [
            "synth", "run", "--seed", "7", "--budget", "8", "--bits", "24",
            "--max-findings", "1", "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["findings"]

    def test_synth_run_writes_report_and_scenarios(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        scenarios = tmp_path / "scenarios.json"
        assert main([
            "synth", "run", "--seed", "7", "--budget", "8", "--bits", "24",
            "--max-findings", "1", "--out", str(out),
            "--scenarios-out", str(scenarios),
        ]) == 0
        capsys.readouterr()
        payloads = json.loads(scenarios.read_text())
        assert payloads and payloads[0]["kind"] == "synth"
        ScenarioSpec.from_dict(payloads[0])  # registrable as-is
        assert json.loads(out.read_text())["evaluated"] == 8

    def test_synth_minimize_prints_canonical_genome(self, capsys, tmp_path):
        fat = tmp_path / "cand.json"
        fat.write_text(json.dumps({**WINNER, "iterations": 6}))
        assert main([
            "synth", "minimize", str(fat), "--seed", "7", "--bits", "24",
        ]) == 0
        out = capsys.readouterr().out.strip()
        minimized = CandidateProgram.from_json(out)
        assert minimized.cost <= 14 * 6

    def test_synth_report_summarises_a_saved_run(self, capsys, tmp_path):
        """``synth report`` prints exactly what ``synth run`` printed."""
        out = tmp_path / "report.json"
        assert main([
            "synth", "run", "--seed", "7", "--budget", "8", "--bits", "24",
            "--max-findings", "1", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert main(["synth", "report", str(out)]) == 0
        text = capsys.readouterr().out
        assert text == printed
        assert "finding 0" in text
        assert "undefended" in text
        assert "minimized" in text

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read"),
            ("not json", "invalid search report JSON"),
            ('{"config": {}}', "missing required field"),
            ("[]", "must be an object"),
        ],
        ids=["missing-file", "not-json", "config-only", "array"],
    )
    def test_synth_report_refuses_a_bad_file(
        self, capsys, tmp_path, content, message
    ):
        path = tmp_path / "report.json"
        if content is not None:
            path.write_text(content)
        assert main(["synth", "report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err

    def test_synth_minimize_refuses_a_missing_file(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        assert main(["synth", "minimize", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {missing}")

    def test_synth_run_rejects_unknown_mitigation(self, capsys):
        assert main([
            "synth", "run", "--budget", "4", "--defense", "nope",
        ]) == 1
        assert "unknown mitigation" in capsys.readouterr().err
