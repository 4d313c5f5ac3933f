"""The lint runner: discover files, run every rule, classify findings.

One :func:`run_lint` call is one lint run:

1. discover ``*.py`` files under the configured roots (or an explicit
   path list);
2. parse everything once into a :class:`~repro.lint.core.Project`;
3. run every registered rule;
4. classify each violation as ``suppressed`` (an inline
   ``# repro: lint-disable=`` or file-level ``lint-disable-file=``
   comment) or ``active``.

Every finding is an error.  Exit-code policy
(:meth:`LintReport.exit_code`): ``0`` when there is no active finding
and no parse failure; ``1`` otherwise.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.lint.config import LintConfig, default_config
from repro.lint.core import Project, Violation, all_rules

__all__ = [
    "Finding",
    "LintReport",
    "changed_files",
    "discover_files",
    "run_lint",
]


@dataclass(frozen=True)
class Finding:
    """One violation plus how the run classified it."""

    violation: Violation
    #: "active" | "suppressed"
    status: str


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    files: int = 0

    @property
    def active(self) -> list[Violation]:
        return [f.violation for f in self.findings if f.status == "active"]

    def summary(self) -> dict:
        errors = len(self.active)
        return {
            "files": self.files,
            "errors": errors,
            "suppressed": len(self.findings) - errors,
            "parse_errors": len(self.parse_errors),
        }

    def exit_code(self) -> int:
        return 1 if self.parse_errors or self.active else 0


def discover_files(
    root: Path, config: LintConfig, paths: Sequence[str] | None = None
) -> list[Path]:
    """Python files to lint: explicit ``paths`` or the configured roots."""
    if paths:
        files: list[Path] = []
        for raw in paths:
            path = (root / raw) if not Path(raw).is_absolute() else Path(raw)
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif path.is_file():
                files.append(path)
            else:
                raise ConfigurationError(f"lint path does not exist: {raw}")
        return files
    files = []
    for include in config.include:
        base = root / include
        if not base.exists():
            raise ConfigurationError(
                f"configured lint root does not exist: {include}"
            )
        files.extend(sorted(base.rglob("*.py")))
    return files


def changed_files(root: Path, ref: str = "HEAD") -> frozenset[str] | None:
    """Repo-relative paths changed vs ``ref``, plus untracked files.

    Returns ``None`` when git is unavailable (no binary, not a repo, or
    the ref does not resolve) — the caller falls back to a full run
    rather than silently linting nothing.
    """

    def _git(*args: str) -> list[str] | None:
        try:
            completed = subprocess.run(
                ["git", "-C", str(root), *args],
                capture_output=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if completed.returncode != 0:
            return None
        return [
            part.decode("utf-8", "replace")
            for part in completed.stdout.split(b"\0")
            if part
        ]

    diffed = _git("diff", "--name-only", "-z", ref, "--")
    if diffed is None:
        return None
    untracked = _git("ls-files", "--others", "--exclude-standard", "-z")
    if untracked is None:
        return None
    return frozenset(diffed) | frozenset(untracked)


def run_lint(
    root: str | Path,
    *,
    config: LintConfig | None = None,
    paths: Sequence[str] | None = None,
    rules: Iterable[type] | None = None,
    changed_only: str | None = None,
) -> LintReport:
    """Run the linter once; see module docstring for the pipeline.

    ``changed_only`` names a git ref: the *whole* project is still
    parsed and analysed (the cross-file rules need every module), but
    findings are reported only for files changed vs that ref (plus
    untracked files).  When git cannot answer, the run silently covers
    the full tree — scoping is an ergonomic filter, never a correctness
    gate.
    """
    root = Path(root).resolve()
    config = config if config is not None else default_config()
    files = discover_files(root, config, paths)
    project = Project.load(root, files, config=config)
    changed: frozenset[str] | None = None
    if changed_only is not None:
        changed = changed_files(root, changed_only)

    report = LintReport(parse_errors=list(project.parse_errors),
                        files=len(project.modules))
    rule_classes = tuple(rules) if rules is not None else all_rules()
    violations: list[Violation] = []
    for rule_cls in rule_classes:
        violations.extend(rule_cls().check(project))

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    if changed is not None:
        violations = [v for v in violations if v.path in changed]
    modules_by_path = {module.rel_path: module for module in project.modules}
    for violation in violations:
        module = modules_by_path.get(violation.path)
        suppressed = module is not None and module.suppressed(
            violation.rule, violation.line
        )
        status = "suppressed" if suppressed else "active"
        report.findings.append(Finding(violation=violation, status=status))
    return report
