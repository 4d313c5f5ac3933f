"""Tests for the interprocedural lint core and the race-* family.

Three layers, mirroring the machinery:

* **call graph** — hypothesis property tests over synthetic modules:
  shuffled definition order, methods, aliased imports, assigned
  lambdas and decorated defs all resolve (or stay conservatively
  unresolved);
* **dataflow** — the shared fixed point (also backing
  ``det-set-iteration``) and the forward pass;
* **fixtures** — tiny ``src/repro/service`` trees seeded with one
  violation per ``race-*`` rule, each shown firing and suppressed.

Plus the ``--changed`` scoping contract against a real git repo.  The
wire protocols are checked at run time, not by lint: see
``tests/test_frames.py``.
"""

from __future__ import annotations

import ast
import subprocess
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import (
    LintConfig,
    ModuleInfo,
    Project,
    build_call_graph,
    changed_files,
    default_config,
    fixpoint_functions,
    run_lint,
)
from repro.lint.rules.determinism import SetIterationRule
from repro.lint.rules.races import (
    AwaitSharedStateRule,
    DroppedTaskRule,
    UnawaitedCoroutineRule,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

RACE_RULES = [AwaitSharedStateRule, DroppedTaskRule, UnawaitedCoroutineRule]


def write_module(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def lint_tree(root: Path, rules, **kwargs):
    for include in default_config().include:
        (root / include).mkdir(parents=True, exist_ok=True)
    return run_lint(root, rules=rules, **kwargs)


def active_rules(report) -> list[str]:
    return [v.rule for v in report.active]


def make_project(modules: dict[str, str]) -> Project:
    """An in-memory Project from {dotted name: source} (no disk I/O)."""
    project = Project(root=Path("/fixture"))
    for dotted, source in modules.items():
        text = textwrap.dedent(source)
        rel = "src/" + dotted.replace(".", "/") + ".py"
        project.modules.append(
            ModuleInfo(
                path=Path("/fixture") / rel,
                rel_path=rel,
                module=dotted,
                source=text,
                tree=ast.parse(text),
                line_suppressions={},
                file_suppressions=frozenset(),
            )
        )
    return project


# ----------------------------------------------------------------------
# call graph: property tests
# ----------------------------------------------------------------------
class TestCallGraphProperties:
    @given(order=st.permutations(list(range(5))))
    @settings(max_examples=25, deadline=None)
    def test_call_chain_resolves_in_any_definition_order(self, order):
        parts = []
        for i in order:
            body = f"return f{i - 1}()" if i > 0 else "return 0"
            parts.append(f"def f{i}():\n    {body}\n")
        project = make_project({"m": "\n".join(parts)})
        graph = build_call_graph(project)
        edges = {(site.caller, site.callee) for site in graph.calls}
        assert edges == {(f"m.f{i}", f"m.f{i - 1}") for i in range(1, 5)}

    @given(k=st.integers(min_value=2, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_self_method_calls_resolve_within_the_class(self, k):
        methods = ["    def m0(self):\n        return 0\n"]
        for i in range(1, k):
            methods.append(
                f"    def m{i}(self):\n        return self.m{i - 1}()\n"
            )
        project = make_project({"m": "class C:\n" + "\n".join(methods)})
        graph = build_call_graph(project)
        for i in range(1, k):
            node = graph.functions[f"m.C.m{i}"]
            assert node.kind == "method" and node.params[0] == "self"
            assert {s.callee for s in graph.callees(f"m.C.m{i}")} == {
                f"m.C.m{i - 1}"
            }

    @given(names=st.permutations(["alpha", "beta", "gamma"]))
    @settings(max_examples=20, deadline=None)
    def test_aliased_imports_resolve_across_modules(self, names):
        producer = "\n".join(f"def {n}():\n    return 0\n" for n in names)
        imports = "\n".join(f"from prod import {n} as use_{n}" for n in names)
        calls = "\n    ".join(f"use_{n}()" for n in names)
        consumer = f"{imports}\nimport prod as pp\n\ndef drive():\n    {calls}\n    pp.{names[0]}()\n"
        project = make_project({"prod": producer, "cons": consumer})
        graph = build_call_graph(project)
        callees = {s.callee for s in graph.callees("cons.drive")}
        assert callees == {f"prod.{n}" for n in names}

    @given(k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_assigned_lambdas_are_indexed_and_resolvable(self, k):
        lines = [f"h{i} = lambda x: x + {i}" for i in range(k)]
        lines.append("def drive():")
        lines.extend(f"    h{i}(1)" for i in range(k))
        project = make_project({"m": "\n".join(lines) + "\n"})
        graph = build_call_graph(project)
        for i in range(k):
            node = graph.functions[f"m.h{i}"]
            assert node.kind == "lambda" and node.params == ("x",)
        assert {s.callee for s in graph.callees("m.drive")} == {
            f"m.h{i}" for i in range(k)
        }

    @given(decorated=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_decorated_defs_keep_their_qualname(self, decorated):
        prefix = "@wraps\n" if decorated else ""
        source = (
            "def wraps(f):\n    return f\n\n"
            f"{prefix}def target():\n    return 1\n\n"
            "def drive():\n    return target()\n"
        )
        project = make_project({"m": source})
        graph = build_call_graph(project)
        node = graph.functions["m.target"]
        assert node.decorators == (("wraps",) if decorated else ())
        assert {s.callee for s in graph.callees("m.drive")} == {"m.target"}

    def test_unknown_targets_stay_unresolved(self):
        project = make_project(
            {"m": "import os\n\ndef drive(x):\n    os.write(1, x)\n    x.go()\n"}
        )
        graph = build_call_graph(project)
        assert graph.callees("m.drive") == []


# ----------------------------------------------------------------------
# dataflow core
# ----------------------------------------------------------------------
class TestDataflow:
    @given(order=st.permutations(list(range(4))))
    @settings(max_examples=20, deadline=None)
    def test_fixpoint_resolves_set_returner_chains_any_order(self, order):
        parts = []
        for i in order:
            body = f"return s{i - 1}()" if i > 0 else "return set()"
            parts.append(f"def s{i}():\n    {body}\n")
        tree = ast.parse("\n".join(parts))
        accepted = fixpoint_functions(tree, SetIterationRule._returns_only_sets)
        assert accepted == frozenset({f"s{i}" for i in range(4)})


# ----------------------------------------------------------------------
# race-* fixtures
# ----------------------------------------------------------------------
class TestRaceRules:
    def test_check_then_act_across_await_fires_and_suppresses(self, tmp_path):
        racy = """
            class Stoppable:
                def __init__(self):
                    self._task = None

                async def stop(self):
                    if self._task is not None:
                        await self._task
                        self._task = None{suffix}
        """
        write_module(
            tmp_path, "src/repro/service/x.py", racy.format(suffix="")
        )
        report = lint_tree(tmp_path, [AwaitSharedStateRule])
        assert active_rules(report) == ["race-await-shared-state"]
        write_module(
            tmp_path,
            "src/repro/service/x.py",
            racy.format(
                suffix="  # repro: lint-disable=race-await-shared-state"
            ),
        )
        report = lint_tree(tmp_path, [AwaitSharedStateRule])
        assert report.active == []

    def test_swap_pattern_is_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/x.py",
            """
            class Stoppable:
                def __init__(self):
                    self._task = None

                async def stop(self):
                    task, self._task = self._task, None
                    if task is not None:
                        await task
            """,
        )
        report = lint_tree(tmp_path, [AwaitSharedStateRule])
        assert report.active == []

    def test_tainted_local_rmw_fires_but_lock_exempts(self, tmp_path):
        body = """
            import asyncio


            class Counter:
                def __init__(self, lock):
                    self._lock = lock
                    self._count = 0

                async def bump(self):
                    {opening}
                        cur = self._count
                        await asyncio.sleep(0)
                        self._count = cur + 1
        """
        write_module(
            tmp_path,
            "src/repro/service/x.py",
            body.format(opening="if True:"),
        )
        report = lint_tree(tmp_path, [AwaitSharedStateRule])
        assert active_rules(report) == ["race-await-shared-state"]
        write_module(
            tmp_path,
            "src/repro/service/x.py",
            body.format(opening="async with self._lock:"),
        )
        report = lint_tree(tmp_path, [AwaitSharedStateRule])
        assert report.active == []

    def test_augmented_await_rmw_fires(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/x.py",
            """
            class Tally:
                def __init__(self):
                    self._total = 0

                async def add(self, fetch):
                    self._total += await fetch()
            """,
        )
        report = lint_tree(tmp_path, [AwaitSharedStateRule])
        assert active_rules(report) == ["race-await-shared-state"]

    def test_outside_async_units_is_ignored(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/frontend/x.py",
            """
            class Stoppable:
                def __init__(self):
                    self._task = None

                async def stop(self):
                    if self._task is not None:
                        await self._task
                        self._task = None
            """,
        )
        report = lint_tree(tmp_path, RACE_RULES)
        assert report.active == []

    def test_dropped_task_fires_retained_is_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/x.py",
            """
            import asyncio


            class Spawner:
                def __init__(self):
                    self._tasks = set()

                async def bad(self, work):
                    asyncio.create_task(work())

                async def good(self, work):
                    task = asyncio.create_task(work())
                    self._tasks.add(task)
                    task.add_done_callback(self._tasks.discard)
            """,
        )
        report = lint_tree(tmp_path, [DroppedTaskRule])
        assert active_rules(report) == ["race-dropped-task"]
        assert report.active[0].line == 10

    def test_dropped_task_suppresses(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/x.py",
            """
            import asyncio


            async def fire(work):
                asyncio.create_task(work())  # repro: lint-disable=race-dropped-task
            """,
        )
        report = lint_tree(tmp_path, [DroppedTaskRule])
        assert report.active == []

    def test_unawaited_coroutine_fires_awaited_is_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/x.py",
            """
            async def work():
                return 1


            def bad():
                work()


            async def good():
                await work()
            """,
        )
        report = lint_tree(tmp_path, [UnawaitedCoroutineRule])
        assert active_rules(report) == ["race-unawaited-coroutine"]
        assert "work" in report.active[0].message

    def test_unawaited_coroutine_suppresses(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/service/x.py",
            """
            async def work():
                return 1


            def bad():
                work()  # repro: lint-disable=race-unawaited-coroutine
            """,
        )
        report = lint_tree(tmp_path, [UnawaitedCoroutineRule])
        assert report.active == []


# ----------------------------------------------------------------------
# --changed scoping
# ----------------------------------------------------------------------
_RACY = """
import asyncio


async def fire(work):
    asyncio.create_task(work())
"""

_CLEAN = "def helper():\n    return 1\n"


def _git(root: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-C", str(root), "-c", "user.email=t@test", "-c",
         "user.name=t", *args],
        check=True,
        capture_output=True,
    )


class TestChangedScoping:
    def _seed_repo(self, root: Path) -> None:
        write_module(root, "src/repro/service/spawn.py", _RACY)
        write_module(root, "src/repro/service/other.py", _CLEAN)
        for include in default_config().include:
            (root / include).mkdir(parents=True, exist_ok=True)
        _git(root, "init", "-q")
        _git(root, "add", "-A")
        _git(root, "commit", "-qm", "seed")

    def test_unchanged_violations_are_filtered_out(self, tmp_path):
        self._seed_repo(tmp_path)
        (tmp_path / "src/repro/service/other.py").write_text(
            _CLEAN + "# touched\n"
        )
        report = run_lint(
            tmp_path, rules=[DroppedTaskRule], changed_only="HEAD"
        )
        assert report.active == []
        full = run_lint(tmp_path, rules=[DroppedTaskRule])
        assert active_rules(full) == ["race-dropped-task"]

    def test_changed_file_still_reports_its_violations(self, tmp_path):
        self._seed_repo(tmp_path)
        spawn = tmp_path / "src/repro/service/spawn.py"
        spawn.write_text(spawn.read_text() + "# touched\n")
        report = run_lint(
            tmp_path, rules=[DroppedTaskRule], changed_only="HEAD"
        )
        assert active_rules(report) == ["race-dropped-task"]

    def test_untracked_files_count_as_changed(self, tmp_path):
        self._seed_repo(tmp_path)
        write_module(tmp_path, "src/repro/service/fresh.py", _RACY)
        report = run_lint(
            tmp_path, rules=[DroppedTaskRule], changed_only="HEAD"
        )
        assert [v.path for v in report.active] == ["src/repro/service/fresh.py"]

    def test_no_git_falls_back_to_full_tree(self, tmp_path):
        write_module(tmp_path, "src/repro/service/spawn.py", _RACY)
        for include in default_config().include:
            (tmp_path / include).mkdir(parents=True, exist_ok=True)
        assert changed_files(tmp_path) is None
        report = run_lint(
            tmp_path, rules=[DroppedTaskRule], changed_only="HEAD"
        )
        assert active_rules(report) == ["race-dropped-task"]

    def test_cli_changed_flag_on_the_real_repo(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "--changed"]) == 0
        assert "0 error(s)" in capsys.readouterr().out
