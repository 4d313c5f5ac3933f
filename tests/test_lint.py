"""Tests for the ``repro.lint`` static-analysis framework.

Structure mirrors the framework:

* fixtures — tiny synthetic ``src/repro/...`` trees seeded with one
  violation each, so every rule family is shown both *catching* its
  target and *staying quiet* on the fixed version;
* framework — suppressions (the one way to tolerate a finding),
  reporters, exit codes;
* fidelity — the manifest check against the real tree, including an
  injected constant-drift (a manifest that disagrees with the code must
  fail, which is exactly how real drift in the other direction fails);
* repo — the tree itself lints clean through the public CLI, which is
  the acceptance criterion CI enforces.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.cli import main
from repro.lint import all_rules, default_config, run_lint
from repro.lint.manifest import CONSTANTS, DOCS, ConstantSpec, DocSpec
from repro.lint.rules.concurrency import AsyncBlockingRule
from repro.lint.rules.determinism import (
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.lint.rules.fidelity import ConstantDriftRule, DocDriftRule
from repro.lint.rules.layering import ImportDagRule

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_module(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def lint_tree(root: Path, rules, **kwargs):
    # Every configured include root must exist; fixture trees usually
    # only populate src/repro, so materialise the rest empty.
    for include in default_config().include:
        (root / include).mkdir(parents=True, exist_ok=True)
    return run_lint(root, rules=rules, **kwargs)


def active_rules(report) -> list[str]:
    return [v.rule for v in report.active]


# ----------------------------------------------------------------------
# determinism family
# ----------------------------------------------------------------------
class TestUnseededRandom:
    def test_catches_stdlib_and_numpy_global_rng(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/channels/noisy.py",
            """
            import random
            import numpy as np


            def jitter():
                np.random.seed(0)
                return random.random() + np.random.rand()
            """,
        )
        report = lint_tree(tmp_path, [UnseededRandomRule])
        assert active_rules(report) == ["det-unseeded-random"] * 3
        assert report.exit_code() == 1

    def test_seeded_generators_pass(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/channels/clean.py",
            """
            import random

            import numpy as np


            def jitter(seed):
                rng = np.random.default_rng(seed)
                legacy = random.Random(seed)
                return rng.normal() + legacy.gauss(0, 1)
            """,
        )
        report = lint_tree(tmp_path, [UnseededRandomRule])
        assert report.active == []
        assert report.exit_code() == 0


class TestWallClock:
    def test_catches_time_os_entropy_and_id_in_sim_packages(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/measure/drift.py",
            """
            import os
            import time


            def sample(obj):
                return time.perf_counter() + len(os.urandom(4)) + id(obj)
            """,
        )
        report = lint_tree(tmp_path, [WallClockRule])
        assert active_rules(report) == ["det-wall-clock"] * 3

    def test_same_calls_allowed_outside_sim_packages(self, tmp_path):
        # exec/ times real executions on purpose; the rule is scoped.
        write_module(
            tmp_path,
            "src/repro/exec/timing.py",
            """
            import time


            def stamp():
                return time.perf_counter()
            """,
        )
        report = lint_tree(tmp_path, [WallClockRule])
        assert report.active == []


class TestSetIteration:
    def test_catches_set_loop_feeding_returned_list(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/frontend/order.py",
            """
            def windows(tags):
                seen = set(tags)
                out = []
                for tag in seen:
                    out.append(tag)
                return out
            """,
        )
        report = lint_tree(tmp_path, [SetIterationRule])
        assert active_rules(report) == ["det-set-iteration"]

    def test_catches_return_list_of_set(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/frontend/order2.py",
            """
            def windows(tags):
                return list({t for t in tags})
            """,
        )
        report = lint_tree(tmp_path, [SetIterationRule])
        assert active_rules(report) == ["det-set-iteration"]

    def test_sorted_iteration_and_membership_pass(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/frontend/order_ok.py",
            """
            def windows(tags):
                seen = set(tags)
                out = []
                for tag in sorted(seen):
                    out.append(tag)
                total = 0
                for tag in tags:        # not a set expression
                    if tag in seen:     # membership is order-free
                        total += 1
                out.append(total)
                return out
            """,
        )
        report = lint_tree(tmp_path, [SetIterationRule])
        assert report.active == []

    def test_dataflow_tracks_set_returning_function(self, tmp_path):
        # The set is built behind a helper: the module-level dataflow
        # pass must prove gather() returns a set and flag both the loop
        # over its call and the local assigned from it.
        write_module(
            tmp_path,
            "src/repro/frontend/flow.py",
            """
            def gather(tags):
                return {t.strip() for t in tags}


            def windows(tags):
                out = []
                for tag in gather(tags):
                    out.append(tag)
                return out


            def labels(tags):
                found = gather(tags)
                return list(found)
            """,
        )
        report = lint_tree(tmp_path, [SetIterationRule])
        assert active_rules(report) == ["det-set-iteration"] * 2

    def test_dataflow_resolves_chains_out_of_order(self, tmp_path):
        # a() -> b() -> set: the fixed point must converge even though
        # the caller is defined before the set-building callee.
        write_module(
            tmp_path,
            "src/repro/frontend/chain.py",
            """
            def outer(tags):
                return inner(tags)


            def inner(tags):
                return frozenset(tags)


            def windows(tags):
                return list(outer(tags))
            """,
        )
        report = lint_tree(tmp_path, [SetIterationRule])
        assert active_rules(report) == ["det-set-iteration"]

    def test_dataflow_tracks_set_annotated_parameter(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/frontend/params.py",
            """
            def windows(tags: set[str]):
                out = []
                for tag in tags:
                    out.append(tag)
                return out
            """,
        )
        report = lint_tree(tmp_path, [SetIterationRule])
        assert active_rules(report) == ["det-set-iteration"]

    def test_dataflow_stays_quiet_on_sorted_helpers(self, tmp_path):
        # A helper that sorts before returning is not a set returner,
        # and sorting a set-returning call clears the violation.
        write_module(
            tmp_path,
            "src/repro/frontend/flow_ok.py",
            """
            def gather(tags):
                return {t.strip() for t in tags}


            def ordered(tags):
                return sorted(gather(tags))


            def windows(tags):
                out = []
                for tag in ordered(tags):
                    out.append(tag)
                for tag in sorted(gather(tags)):
                    out.append(tag)
                return out
            """,
        )
        report = lint_tree(tmp_path, [SetIterationRule])
        assert report.active == []


# ----------------------------------------------------------------------
# layering family
# ----------------------------------------------------------------------
class TestLayering:
    def test_exec_must_not_import_service(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/exec/backchannel.py",
            """
            from repro.service.jobs import Job


            def leak():
                return Job
            """,
        )
        report = lint_tree(tmp_path, [ImportDagRule])
        assert active_rules(report) == ["layer-import-dag"]
        assert "'exec' must not import 'service'" in report.active[0].message

    def test_nothing_imports_cli(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/machine/oops.py",
            "from repro.cli import main\n",
        )
        report = lint_tree(tmp_path, [ImportDagRule])
        assert active_rules(report) == ["layer-import-dag"]
        assert "'machine' must not import 'cli'" in report.active[0].message

    def test_frontend_is_a_leaf(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/frontend/upward.py",
            "from repro.machine.specs import GOLD_6226\n",
        )
        report = lint_tree(tmp_path, [ImportDagRule])
        assert active_rules(report) == ["layer-import-dag"]

    def test_type_checking_imports_are_exempt(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/analysis/typed.py",
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:  # pragma: no cover
                from repro.channels.base import TransmissionResult


            def describe(result: "TransmissionResult") -> str:
                return str(result)
            """,
        )
        report = lint_tree(tmp_path, [ImportDagRule])
        assert report.active == []

    def test_unknown_unit_must_be_added_to_the_table(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/mystery/mod.py",
            "from repro.machine.specs import GOLD_6226\n",
        )
        report = lint_tree(tmp_path, [ImportDagRule])
        assert active_rules(report) == ["layer-import-dag"]
        assert "not in the layering table" in report.active[0].message


# ----------------------------------------------------------------------
# concurrency family
# ----------------------------------------------------------------------
class TestAsyncBlocking:
    def test_catches_sleep_file_io_and_executor_compute(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/stall.py",
            """
            import time


            async def worker(executor, points, factory, path):
                time.sleep(0.1)
                data = path.read_text()
                return executor.compute(points, factory), data
            """,
        )
        report = lint_tree(tmp_path, [AsyncBlockingRule])
        assert active_rules(report) == ["async-blocking"] * 3

    def test_to_thread_worker_bodies_are_exempt(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/ok.py",
            """
            import asyncio


            async def worker(executor, points, factory):
                def run_batch():  # executes in a worker thread
                    return executor.compute(points, factory)

                return await asyncio.to_thread(run_batch)
            """,
        )
        report = lint_tree(tmp_path, [AsyncBlockingRule])
        assert report.active == []

    def test_sync_defs_outside_async_are_exempt(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/sync.py",
            """
            import time


            def warmup():
                time.sleep(0.01)
            """,
        )
        report = lint_tree(tmp_path, [AsyncBlockingRule])
        assert report.active == []


# ----------------------------------------------------------------------
# paper-fidelity family
# ----------------------------------------------------------------------
class DriftedConstantRule(ConstantDriftRule):
    """The real rule with one manifest entry that disagrees with the
    code — equivalent to the code having drifted from the manifest."""

    manifest = (
        ConstantSpec(
            "dsb.sets",
            "src/repro/frontend/params.py",
            "FrontendParams.dsb_sets",
            33,  # injected drift (paper value is 32)
            "injected drift for the test",
        ),
    )


class RenamedConstantRule(ConstantDriftRule):
    manifest = (
        ConstantSpec(
            "dsb.sets",
            "src/repro/frontend/params.py",
            "FrontendParams.dsb_sets_renamed",
            32,
            "symbol no longer exists",
        ),
    )


class TestConstantDrift:
    def test_real_tree_matches_the_real_manifest(self):
        report = run_lint(REPO_ROOT, rules=[ConstantDriftRule])
        assert report.active == []

    def test_injected_drift_is_caught(self):
        report = run_lint(REPO_ROOT, rules=[DriftedConstantRule])
        assert active_rules(report) == ["fidelity-constant-drift"]
        message = report.active[0].message
        assert "dsb.sets" in message and "33" in message and "32" in message
        assert report.exit_code() == 1

    def test_missing_symbol_is_drift_too(self):
        report = run_lint(REPO_ROOT, rules=[RenamedConstantRule])
        assert active_rules(report) == ["fidelity-constant-drift"]
        assert "not found" in report.active[0].message

    def test_manifest_covers_the_headline_sdm_figures(self):
        by_name = {spec.name: spec.expected for spec in CONSTANTS}
        assert by_name["dsb.sets"] == 32
        assert by_name["dsb.ways"] == 8
        assert by_name["dsb.line_uops"] == 6
        assert by_name["lsd.capacity_uops"] == 64
        assert by_name["mite.fetch_bytes_per_cycle"] == 16
        # All four Table I machines are pinned.
        for machine in ("gold6226", "e2174g", "e2286g", "e2288g"):
            assert f"{machine}.frequency_ghz" in by_name


class DriftedDocRule(DocDriftRule):
    manifest = (
        DocSpec(
            "docs.dsb_geometry",
            "docs/model.md",
            "48 sets x 12 ways",  # nothing documents this geometry
            "injected doc drift",
        ),
    )


class TestDocDrift:
    def test_real_docs_quote_the_manifest_phrases(self):
        report = run_lint(REPO_ROOT, rules=[DocDriftRule])
        assert report.active == []
        assert {spec.path for spec in DOCS} >= {"docs/model.md", "README.md"}

    def test_missing_phrase_is_caught(self):
        report = run_lint(REPO_ROOT, rules=[DriftedDocRule])
        assert active_rules(report) == ["fidelity-doc-drift"]


# ----------------------------------------------------------------------
# framework: suppressions, baseline, severities, reporters, exit codes
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_line_suppression_silences_one_rule_on_one_line(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/measure/supp.py",
            """
            import time


            def a():
                return time.perf_counter()  # repro: lint-disable=det-wall-clock


            def b():
                return time.perf_counter()
            """,
        )
        report = lint_tree(tmp_path, [WallClockRule])
        assert len(report.active) == 1
        assert report.summary()["suppressed"] == 1
        # The surviving violation is the unsuppressed one in b().
        assert report.active[0].line > 5

    def test_file_suppression_silences_the_whole_file(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/measure/suppfile.py",
            """
            # repro: lint-disable-file=det-wall-clock
            import time


            def a():
                return time.perf_counter()
            """,
        )
        report = lint_tree(tmp_path, [WallClockRule])
        assert report.active == []
        assert report.summary()["suppressed"] == 1

    def test_suppressing_one_rule_keeps_others_active(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/measure/mixed.py",
            """
            import random
            import time


            def a():
                # both rules fire on the next line; only one is disabled
                return time.perf_counter() + random.random()  # repro: lint-disable=det-wall-clock
            """,
        )
        report = lint_tree(tmp_path, [WallClockRule, UnseededRandomRule])
        assert active_rules(report) == ["det-unseeded-random"]


class TestSeverityAndExitCodes:
    def test_syntax_error_fails_the_run(self, tmp_path):
        write_module(tmp_path, "src/repro/measure/broken.py", "def oops(:\n")
        report = lint_tree(tmp_path, [WallClockRule])
        assert report.parse_errors
        assert report.exit_code() == 1


# ----------------------------------------------------------------------
# CLI and whole-repo acceptance
# ----------------------------------------------------------------------
class TestCli:
    def test_repo_lints_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_json_format_carries_summary_and_findings(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0
        assert payload["summary"]["files"] > 100
        assert isinstance(payload["findings"], list)

    def test_list_rules_names_every_family(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in ("determinism", "layering", "concurrency", "fidelity"):
            assert family in out
        for rule_cls in all_rules():
            assert rule_cls.name in out

    def test_lint_failure_exit_code_through_cli(self, tmp_path, capsys, monkeypatch):
        """Every finding is an error: one unsuppressed finding fails the
        run, and its suppressed twin passes."""
        monkeypatch.chdir(REPO_ROOT)
        source = """
            import time


            def a():
                return time.perf_counter(){comment}
            """
        bad = write_module(
            tmp_path / "bad", "src/repro/measure/cli_bad.py",
            source.format(comment=""),
        )
        twin = write_module(
            tmp_path / "twin", "src/repro/measure/cli_bad.py",
            source.format(comment="  # repro: lint-disable=det-wall-clock"),
        )
        assert main(["lint", str(bad)]) == 1
        assert "error [det-wall-clock]" in capsys.readouterr().out
        assert main(["lint", str(twin)]) == 0
        assert "0 error(s), 1 suppressed" in capsys.readouterr().out


class TestRepoIsClean:
    """The tree's own hygiene, enforced the same way CI enforces it."""

    def test_full_run_all_rules_zero_active_violations(self):
        report = run_lint(REPO_ROOT)
        assert report.parse_errors == []
        assert [v.as_dict() for v in report.active] == []
        assert report.exit_code() == 0

    def test_every_rule_family_is_registered(self):
        families = {rule_cls.family for rule_cls in all_rules()}
        assert families == {
            "determinism",
            "layering",
            "concurrency",
            "fidelity",
            "races",
        }

    def test_suppression_inventory_is_audited(self):
        """Every lint-disable marker in the tree is individually accounted
        for.  New exemptions must be argued into this list, not sprayed as
        blanket ``lint-disable-file`` pragmas — in particular the
        deterministic simulation units must stay suppression-free and
        satisfy the rules for real."""
        from repro.lint.core import _SUPPRESS_FILE, _SUPPRESS_LINE

        inventory = set()
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            rel = path.relative_to(REPO_ROOT).as_posix()
            for match in _SUPPRESS_FILE.finditer(path.read_text()):
                inventory.add((rel, "file", match.group(1)))
            for match in _SUPPRESS_LINE.finditer(path.read_text()):
                inventory.add((rel, "line", match.group(1)))
        assert inventory == {
            # The host-clock shim *is* the wall-clock boundary.
            ("src/repro/obs/clock.py", "file", "det-wall-clock"),
            # Draining a future set: order is irrelevant by construction.
            ("src/repro/lint/core.py", "line", "det-set-iteration"),
        }
        suppressed_files = {rel for rel, _, _ in inventory}
        for unit in default_config().deterministic_units:
            unit_dir = f"src/repro/{unit}/"
            offenders = {
                rel
                for rel in suppressed_files
                if rel.startswith(unit_dir) and "obs/clock" not in rel
            }
            assert offenders == set(), offenders
