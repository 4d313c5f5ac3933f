"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_transmit_defaults(self):
        args = build_parser().parse_args(["transmit"])
        assert args.channel == "eviction"
        assert args.variant == "stealthy"
        assert args.seed == 0

    def test_seed_after_subcommand(self):
        args = build_parser().parse_args(["transmit", "--seed", "7"])
        assert args.seed == 7

    def test_rejects_unknown_channel(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["transmit", "--channel", "tlb"])


class TestCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "Gold 6226" in out
        assert "E-2288G" in out

    def test_transmit_message(self, capsys):
        code = main(
            ["transmit", "--channel", "misalignment", "--variant", "fast",
             "--message", "0110", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sent    : 0110" in out
        assert "Kbps" in out

    def test_transmit_random_bits(self, capsys):
        assert main(["transmit", "--bits", "8", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "error" in out

    def test_probe(self, capsys):
        assert main(["probe", "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert "LSD" in out and "MITE+DSB" in out

    def test_fingerprint(self, capsys):
        assert main(["fingerprint", "--patch", "patch1"]) == 0
        out = capsys.readouterr().out
        assert "LSD ENABLED" in out
        assert "vulnerable to" in out

    def test_spectre(self, capsys):
        assert main(["spectre", "--secret", "abc", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "L1 miss rate" in out

    def test_sgx_non_mt(self, capsys):
        assert main(["sgx", "--bits", "8", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "sgx-non-mt" in out

    def test_sweep_serial_with_cache(self, capsys, tmp_path):
        argv = [
            "sweep", "--channel", "eviction", "--variant", "fast",
            "--param", "d=2,4", "--bits", "8",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "kbps_mean" in cold
        assert "cache hits 0/2" in cold
        # Warm rerun serves every point from the cache, same table.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache hits 2/2" in warm
        assert warm.splitlines()[:4] == cold.splitlines()[:4]

    def test_sweep_parallel_matches_serial(self, capsys):
        base = [
            "sweep", "--channel", "eviction", "--variant", "fast",
            "--param", "d=2,4", "--bits", "8", "--no-cache",
        ]
        assert main(base) == 0
        serial = capsys.readouterr().out.splitlines()[:4]
        assert main(base + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out.splitlines()[:4]
        assert parallel == serial

    def test_sweep_progress_jsonl_on_stderr_stdout_unchanged(self, capsys):
        import json

        base = [
            "sweep", "--param", "d=2", "--bits", "8", "--no-cache",
            "--variant", "fast",
        ]
        assert main(base) == 0
        plain = capsys.readouterr()
        assert plain.err == ""

        assert main(base + ["--progress"]) == 0
        captured = capsys.readouterr()
        # Progress events are service-format JSONL, on stderr only...
        events = [json.loads(line) for line in captured.err.splitlines()]
        assert [e["event"] for e in events] == ["point-done"]
        assert events[0]["done"] == events[0]["total"] == 1
        # ...and the stdout table stays byte-identical for result piping
        # (the trailing stats line carries wall times, hence [:4]).
        assert captured.out.splitlines()[:4] == plain.out.splitlines()[:4]

    def test_sweep_rejects_zero_jobs(self, capsys):
        code = main(["sweep", "--param", "d=2", "--no-cache", "--jobs", "0"])
        assert code == 1
        assert "--jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message",
        [("--workers", "workers must be >= 1"), ("--batch-size", "batch_size must be >= 1")],
    )
    def test_refused_serve_creates_no_cache_dir(self, tmp_path, capsys, flag, message):
        cache_dir = tmp_path / "c"
        code = main(["serve", flag, "0", "--cache-dir", str(cache_dir)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not cache_dir.exists()

    def test_sweep_rejects_non_numeric_value_cleanly(self, capsys):
        code = main(["sweep", "--param", "q=100,fast", "--no-cache"])
        assert code == 1
        assert "invalid ChannelConfig" in capsys.readouterr().err

    def test_sweep_rejects_bad_param(self, capsys):
        assert main(["sweep", "--param", "d", "--no-cache"]) == 1
        assert "--param expects" in capsys.readouterr().err

    def test_sweep_rejects_unknown_config_field(self, capsys):
        assert main(["sweep", "--param", "nope=1", "--no-cache"]) == 1
        assert "unknown ChannelConfig parameter" in capsys.readouterr().err

    def test_mt_channel_on_non_smt_machine_fails_cleanly(self, capsys):
        code = main(
            ["transmit", "--machine", "E-2288G", "--channel", "mt-eviction"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_machine_fails_cleanly(self, capsys):
        assert main(["transmit", "--machine", "i9-9900K"]) == 1
        assert "unknown machine" in capsys.readouterr().err


class TestBackendFlag:
    """``--backend`` and the ``repro.frontend.backends`` names stay only
    because the benchmark under ``perf/`` uses them; none changes a run."""

    VERBS = (
        ["sweep", "--param", "d=2"],
        ["serve"],
        ["worker", "--connect", "x"],
        ["scenario", "run", "frontal"],
        ["synth", "run"],
        ["synth", "minimize", "-"],
    )

    @pytest.fixture(autouse=True)
    def _restore_default(self):
        from repro.frontend.backends import set_default_backend

        previous = set_default_backend(None)
        yield
        set_default_backend(previous)

    def test_parser_accepts_backend_on_six_verbs(self):
        parser = build_parser()
        for argv in self.VERBS:
            for name in ("reference", "vectorized"):
                assert parser.parse_args(argv + ["--backend", name]).backend == name

    def test_parser_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--backend", "turbo"])

    def test_backend_flag_leaves_output_and_environment_unchanged(self, capsys):
        import os

        base = [
            "sweep", "--channel", "eviction", "--variant", "fast",
            "--param", "d=2,4", "--bits", "8", "--no-cache",
        ]
        environ = dict(os.environ)
        assert main(base) == 0
        plain_out = capsys.readouterr().out.splitlines()[:4]
        for name in ("reference", "vectorized"):
            assert main(base + ["--backend", name]) == 0
            assert capsys.readouterr().out.splitlines()[:4] == plain_out
        assert dict(os.environ) == environ

    def test_set_default_backend_returns_previous_value(self):
        from repro.errors import ConfigurationError
        from repro.frontend.backends import set_default_backend

        assert set_default_backend("vectorized") is None
        assert set_default_backend("reference") == "vectorized"
        assert set_default_backend(None) == "reference"
        with pytest.raises(ConfigurationError):
            set_default_backend("turbo")
        assert set_default_backend(None) is None

    def test_stub_classes_run_the_engine(self):
        import dataclasses

        from repro.frontend.backends.reference import ReferenceBackend
        from repro.frontend.backends.vectorized import VectorizedBackend
        from repro.frontend.engine import FrontendEngine
        from repro.isa.blocks import standard_mix_block
        from repro.isa.layout import BlockChainLayout
        from repro.isa.program import LoopProgram

        layout = BlockChainLayout()
        program = LoopProgram(
            [standard_mix_block(layout.block_address(s, 3)) for s in range(6)],
            5_000,
        )
        expected = dataclasses.astuple(FrontendEngine().run_loop(program))
        for cls in (ReferenceBackend, VectorizedBackend):
            assert "run_loop" in cls.__dict__
            report = cls().run_loop(FrontendEngine(), program, 0, False, False)
            assert dataclasses.astuple(report) == expected
