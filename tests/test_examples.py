"""The examples are part of the public contract: they must keep running.

Each example runs as a script in its own interpreter, the way a reader
runs it, with ``PYTHONPATH`` pointing at ``src``; besides exiting 0,
each must print its scenario's headline artifact.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"

#: script -> substring its output must contain.
EXPECTED_OUTPUT = {
    "quickstart.py": "Kbps",
    "hyperthread_spy.py": "classified correctly",
    "sgx_trojan.py": "leaked",
    "spectre_frontend.py": "frontend-dsb",
    "microcode_audit.py": "verdict",
    "key_extraction.py": "recovered",
    "defended_server.py": "mitigation",
    "sandboxed_attacker.py": "counting-thread",
}


def run_example(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("script", sorted(EXPECTED_OUTPUT))
def test_example_runs(script):
    result = run_example(script)
    assert result.returncode == 0, result.stderr
    assert EXPECTED_OUTPUT[script] in result.stdout
    assert len(result.stdout) > 100  # each example narrates its scenario


def test_every_example_is_covered():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXPECTED_OUTPUT)
