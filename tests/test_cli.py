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
    """``--backend`` selects the simulation backend without changing results."""

    @pytest.fixture(autouse=True)
    def _restore_backend(self, monkeypatch):
        from repro.frontend.backends import ENV_VAR, set_default_backend

        monkeypatch.delenv(ENV_VAR, raising=False)
        previous = set_default_backend(None)
        yield
        set_default_backend(previous)

    def test_parser_accepts_backend_on_sweep_serve_worker(self):
        parser = build_parser()
        for argv in (
            ["sweep", "--param", "d=2", "--backend", "vectorized"],
            ["serve", "--backend", "reference"],
            ["worker", "--connect", "x", "--backend", "vectorized"],
        ):
            assert parser.parse_args(argv).backend == argv[-1]

    def test_parser_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--backend", "turbo"])

    def test_backend_flag_sets_default_and_environment(self, capsys):
        import os

        from repro.frontend.backends import ENV_VAR, default_backend_name

        base = [
            "sweep", "--channel", "eviction", "--variant", "fast",
            "--param", "d=2,4", "--bits", "8", "--no-cache",
        ]
        assert main(base) == 0
        reference_out = capsys.readouterr().out.splitlines()[:4]
        assert main(base + ["--backend", "vectorized"]) == 0
        vectorized_out = capsys.readouterr().out.splitlines()[:4]
        assert vectorized_out == reference_out
        assert default_backend_name() == "vectorized"
        assert os.environ[ENV_VAR] == "vectorized"
