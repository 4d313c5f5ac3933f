"""Every CLI flag, and what each command builds from its flags, pinned.

Three kinds of pin, all checked against ``tests/fixtures/cli_pins.json``:

* **parser** — for every verb and sub-verb, each argparse action's
  ``option_strings``, ``dest``, ``nargs``, ``const``, type name,
  ``choices``, ``required``, ``metavar``, ``help`` and ``default``.
  These fields, rather than ``format_help()`` text, because argparse's
  help layout differs between Python versions;
* **builds** — what ``sweep``, ``submit``, ``scenario submit``,
  ``synth run`` and ``synth minimize`` hand to the library, from a bare
  argv and from one that sets every flag: the spec's canonical JSON,
  the sweep factory's fingerprint and point seeds, and the executor's
  class, ``jobs``, ``workers``, ``shard_size`` and ``bind``.  Each is
  captured where the command hands off (``ParameterSweep.run``,
  ``submit_and_stream``, ``SynthSearch.run``, ``shrink``), so nothing
  runs and no socket opens;
* **imports** — ``import repro.cli`` loads none of the heavy layers,
  so ``serve`` and every other verb start without them.

After an intended change, regenerate the fixture with
``PYTHONPATH=src python tests/test_cli_pins.py`` and review its diff.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "cli_pins.json"

#: The seed-7 synthesis winner (as in ``tests/test_synth.py``).
GENOME = {
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

_SWEEP_ALL = [
    "sweep", "--seed", "5", "--machine", "Xeon E-2174G",
    "--channel", "misalignment", "--variant", "stealthy",
    "--param", "d=2,4", "--param", "M=8", "--trials", "2", "--bits", "16",
    "--jobs", "2", "--cache-dir", "cache", "--no-cache", "--progress",
    "--workers", "2", "--bind", "cluster.sock", "--shard-size", "3",
    "--backend", "vectorized",
]
_SUBMIT_ALL = [
    "submit", "--seed", "5", "--socket", "svc.sock",
    "--machine", "Xeon E-2174G", "--channel", "misalignment",
    "--variant", "stealthy", "--param", "d=2,4", "--param", "M=8",
    "--trials", "2", "--bits", "16", "--priority", "3", "--label", "lbl",
    "--token", "t0k", "--timeout", "2.5",
]
_SCENARIO_SUBMIT_ALL = [
    "scenario", "submit", "frontal", "--socket", "svc.sock",
    "--param", "steps_per_branch=3,5", "--param", "calibration_reps=4",
    "--trials", "2", "--seed", "5", "--priority", "3", "--label", "lbl",
    "--token", "t0k", "--timeout", "2.5",
]
_SYNTH_RUN_ALL = [
    "synth", "run", "--seed", "7", "--budget", "10", "--batch-size", "4",
    "--machine", "Xeon E-2174G", "--bits", "16", "--training-bits", "8",
    "--max-findings", "2", "--shrink-budget", "20",
    "--defense", "none", "--defense", "disable-lsd+isolate-dsb",
    "--jobs", "2", "--workers", "2", "--bind", "cluster.sock",
    "--shard-size", "3", "--cache-dir", "cache", "--json",
    "--out", "report.json", "--scenarios-out", "scenarios.json",
    "--backend", "reference",
]
_SYNTH_MINIMIZE_ALL = [
    "synth", "minimize", "-", "--seed", "3", "--machine", "Xeon E-2174G",
    "--bits", "16", "--training-bits", "8", "--budget", "10",
    "--backend", "vectorized",
]

#: Build-pin case -> argv.
CASES = {
    "sweep/bare": ["sweep", "--param", "d=2,4"],
    "sweep/all": _SWEEP_ALL,
    "sweep/jobs-2": ["sweep", "--param", "d=2", "--jobs", "2"],
    "sweep/workers-2": ["sweep", "--param", "d=2", "--workers", "2"],
    "sweep/bind-unix": [
        "sweep", "--param", "d=2", "--bind", "cluster.sock", "--workers", "0",
    ],
    "submit/bare": ["submit", "--param", "d=2,4"],
    "submit/all": _SUBMIT_ALL,
    "scenario-submit/bare": [
        "scenario", "submit", "frontal", "--param", "steps_per_branch=3,5",
    ],
    "scenario-submit/all": _SCENARIO_SUBMIT_ALL,
    "synth-run/bare": ["synth", "run"],
    "synth-run/all": _SYNTH_RUN_ALL,
    "synth-run/jobs-2": ["synth", "run", "--jobs", "2"],
    "synth-run/workers-2": ["synth", "run", "--workers", "2"],
    "synth-run/bind-unix": [
        "synth", "run", "--bind", "cluster.sock", "--workers", "0",
    ],
    "synth-minimize/bare": ["synth", "minimize", "-"],
    "synth-minimize/all": _SYNTH_MINIMIZE_ALL,
}


# ----------------------------------------------------------------------
# parser pins
# ----------------------------------------------------------------------
def _action_pin(action: argparse.Action) -> dict:
    pin = {
        "action": type(action).__name__,
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "nargs": action.nargs,
        "const": action.const,
        "type": None if action.type is None else action.type.__name__,
        "choices": None if action.choices is None else list(action.choices),
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
        "default": action.default,
    }
    if isinstance(action, argparse._SubParsersAction):
        pin["verb_help"] = {
            choice.dest: choice.help for choice in action._choices_actions
        }
    return pin


def parser_pins() -> dict:
    """``{"repro <verb> [<sub-verb>]": [action pin, ...]}``."""
    pins: dict[str, list] = {}

    def walk(parser: argparse.ArgumentParser, path: str) -> None:
        pins[path] = [_action_pin(action) for action in parser._actions]
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, f"{path} {name}")

    walk(build_parser(), "repro")
    return pins


# ----------------------------------------------------------------------
# build pins
# ----------------------------------------------------------------------
class _Captured(Exception):
    """Stops a command where it hands its work to the library."""


def _executor_pin(executor) -> dict:
    bind = getattr(executor, "bind", None)
    return {
        "class": type(executor).__name__,
        "jobs": executor.jobs,
        "workers": getattr(executor, "workers", None),
        "shard_size": getattr(executor, "shard_size", None),
        "bind": None if bind is None else str(bind),
    }


def _cache_pin(cache) -> str | None:
    return None if cache is None else str(cache.root)


def build_pin(monkeypatch, argv: list[str]) -> dict:
    """What one CLI invocation hands to the library (nothing runs)."""
    import repro.service.client
    import repro.synth
    from repro.exec import callable_fingerprint
    from repro.sweep import ParameterSweep

    captured: dict = {}

    def sweep_run(self, executor=None, cache=None, progress=None):
        captured.update(
            factory=callable_fingerprint(self.factory),
            grid=self.grid,
            trials=self.trials,
            base_seed=self.base_seed,
            seeds=[point.seed for point in self.points()],
            executor=_executor_pin(executor),
            cache=_cache_pin(cache),
            progress=progress is not None,
        )
        raise _Captured

    def submit(socket_path, spec, events_out=None, token=None, timeout_s=None):
        captured.update(
            socket=str(socket_path),
            spec=spec.to_json(),
            token=token,
            timeout_s=timeout_s,
        )
        raise _Captured

    def synth_run(self, executor=None, cache=None, **_kwargs):
        captured.update(
            config=self.config.to_json(),
            executor=_executor_pin(executor),
            cache=_cache_pin(cache),
        )
        raise _Captured

    def minimize(candidate, oracle, root_seed, budget):
        captured.update(
            candidate=candidate.to_json(),
            oracle=oracle.config.to_json(),
            seed=root_seed,
            budget=budget,
        )
        raise _Captured

    monkeypatch.setattr(ParameterSweep, "run", sweep_run)
    monkeypatch.setattr(repro.service.client, "submit_and_stream", submit)
    monkeypatch.setattr(repro.synth.SynthSearch, "run", synth_run)
    monkeypatch.setattr(repro.synth, "shrink", minimize)
    monkeypatch.delenv("REPRO_SERVICE_TOKEN", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(GENOME)))
    with pytest.raises(_Captured):
        main(argv)
    return captured


# ----------------------------------------------------------------------
# the tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _normalise(value):
    """The pins as the fixture stores them (tuples become lists)."""
    return json.loads(json.dumps(value))


class TestParserPins:
    def test_every_verb_is_pinned(self, pinned):
        assert sorted(parser_pins()) == sorted(pinned["parser"])

    @pytest.mark.parametrize("path", sorted(parser_pins()))
    def test_actions(self, pinned, path):
        assert _normalise(parser_pins()[path]) == pinned["parser"][path]


class TestBuildPins:
    def test_every_case_is_pinned(self, pinned):
        assert sorted(CASES) == sorted(pinned["builds"])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_build(self, pinned, monkeypatch, tmp_path, case):
        monkeypatch.chdir(tmp_path)
        pin = build_pin(monkeypatch, CASES[case])
        assert _normalise(pin) == pinned["builds"][case]


def test_import_loads_no_heavy_layer():
    source = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(source), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['repro', 'synth'], ['repro', 'cluster'], "
            "['repro', 'scenarios'], ['repro', 'spectre'])))",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


if __name__ == "__main__":  # pragma: no cover
    import tempfile

    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        patch.chdir(scratch)
        document = {
            "parser": _normalise(parser_pins()),
            "builds": {
                name: _normalise(build_pin(patch, argv))
                for name, argv in CASES.items()
            },
        }
    FIXTURE.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {FIXTURE}")
