"""Checks of the end-to-end benchmark itself: ``pytest perf -q``.

Outside the tier-1 ``testpaths``: each workload runs for real, at the
minimum size (one unit), untraced and traced, which takes a few minutes
on two cores.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hostspeed import REF_S, Timeline

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in SPEC["workloads"]]
#: Shorter than any unit, so every run does exactly its minimum units.
QUICK_SECONDS = "0.05"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str) -> tuple[dict, str, subprocess.CompletedProcess]:
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[2] for line in lines if line.split()[1:2] == ["digest"])
    return json.loads(lines[-1]), digest, proc


@pytest.fixture(scope="module")
def runs():
    cache: dict[tuple[str, str], tuple] = {}

    def get(workload: str, trace: str):
        if (workload, trace) not in cache:
            cache[workload, trace] = bench(
                "--workload", workload, "--seconds", QUICK_SECONDS, "--trace", trace
            )
        return cache[workload, trace]

    return get


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perf"]
    assert SPEC["command"][0] == "python3" and SPEC["command"][1] == "perf/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"]) and 0 < len(workload["why"]) <= 200
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_host_speed_averages_the_samples_in_the_interval():
    host = Timeline([[0, 0, REF_S], [10, 1, 2 * REF_S], [20, 0, REF_S], [30, 1, 4 * REF_S]])
    assert host.speed(5, 25) == pytest.approx(0.75)
    assert host.speed(0, 30) == pytest.approx((1 + 0.5 + 1 + 0.25) / 4)
    # Shorter than the sampling period: the nearest sample stands in.
    assert host.speed(27, 29) == pytest.approx(0.25)
    assert host.speed(11, 12) == pytest.approx(0.5)
    assert host.speed(40, 50) == pytest.approx(0.25)


@pytest.mark.parametrize("workload", NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(runs, workload):
    result, _, _ = runs(workload, "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_runs_repeat_their_digest(runs, workload):
    _, plain, _ = runs(workload, "0")
    _, traced, _ = runs(workload, "1")
    # The traced run's three phases already had to agree with each other.
    assert " / " not in traced
    assert plain == traced


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_every_per_layer_metric(runs, workload):
    result, _, _ = runs(workload, "1")
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.overhead"]["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_trace_spans_are_well_formed(runs, workload):
    runs(workload, "1")
    trace = json.loads((PERF / "out" / f"{workload}.trace.json").read_text())
    spans = [event for event in trace["traceEvents"] if event["ph"] == "X"]
    assert spans
    by_id = {span["args"]["id"]: span for span in spans}
    assert len(by_id) == len(spans), "span ids repeat"
    layers = Counter(span["cat"] for span in spans)
    assert "perf" in layers and len(layers) > 1
    for span in spans:
        args = span["args"]
        assert span["dur"] >= 0 and args["self_us"] >= -1e-3
        if args["parent"] is None:
            continue
        parent = by_id[args["parent"]]
        assert parent["args"]["op"] == args["op"]
        assert parent["ts"] <= span["ts"] + 1e-3
        assert span["ts"] + span["dur"] <= parent["ts"] + parent["dur"] + 1e-3


def test_refuses_to_run_without_the_program():
    bare = PERF / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(PERF, bare / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perf/run.py", "--workload", NAMES[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
