"""Core machinery of the ``repro.lint`` static-analysis framework.

The linter exists because the reproduction's correctness claims are
*structural*: the executor cache and the sweep service dedupe work on
content-hashed point keys, so hidden nondeterminism silently poisons
cache hits; the simulator's constants carry the paper's Table I / SDM
figures and must not drift.  Those invariants are checkable from the
AST, so this module provides the pieces every rule shares:

* :class:`Violation` — what a rule reports (every finding is an error);
* :class:`ModuleInfo`, :class:`Project` — what a rule sees (parsed
  sources plus per-line suppression comments);
* :class:`Rule` and the registry (:func:`register`, :func:`all_rules`)
  — how rules plug in.

Rules never read files themselves: the :class:`Project` parses each
source exactly once and hands every rule the same ASTs, so a full lint
run is one parse pass plus N cheap visitors.

Suppressions are explicit and per-rule::

    futures = set(pending)  # repro: lint-disable=det-set-iteration

suppresses exactly that rule on exactly that line; a line of the form
``# repro: lint-disable-file=<rule>`` anywhere in a file suppresses the
rule for the whole file.  Suppression comments are the one way to
tolerate a finding.  Suppressed violations are still collected (and
counted in the summary) so they stay visible in ``--format json``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

__all__ = [
    "Violation",
    "ModuleInfo",
    "Project",
    "Rule",
    "register",
    "all_rules",
    "rules_by_name",
]


@dataclass(frozen=True)
class Violation:
    """One finding: a rule, a location, and a human-readable message."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    col: int
    message: str

    def as_dict(self) -> dict:
        return asdict(self)


_SUPPRESS_LINE = re.compile(r"#\s*repro:\s*lint-disable=([\w.,*-]+)")
_SUPPRESS_FILE = re.compile(r"#\s*repro:\s*lint-disable-file=([\w.,*-]+)")


@dataclass
class ModuleInfo:
    """One parsed source file plus everything rules commonly need."""

    path: Path  # absolute
    rel_path: str  # repo-relative, forward slashes
    module: str  # dotted module name, e.g. "repro.frontend.dsb"
    source: str
    tree: ast.Module
    #: rule names suppressed per line number (1-based).
    line_suppressions: Mapping[int, frozenset[str]]
    #: rule names suppressed for the whole file.
    file_suppressions: frozenset[str]

    @property
    def unit(self) -> str:
        """Top-level layering unit under ``repro`` ("frontend", "cli", ...).

        The root package's ``__init__`` maps to ``repro`` itself and
        ``__main__`` keeps its own name, so both can carry layer rules.
        """
        parts = self.module.split(".")
        if parts[0] == "benchmarks":
            return "benchmarks"
        if len(parts) == 1:  # "repro"
            return "repro"
        return parts[1]

    def suppressed(self, rule: str, line: int) -> bool:
        if rule in self.file_suppressions or "all" in self.file_suppressions:
            return True
        names = self.line_suppressions.get(line, frozenset())
        return rule in names or "all" in names

    @classmethod
    def parse(cls, path: Path, root: Path) -> "ModuleInfo":
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:  # explicit path outside the repo root
            rel = path.as_posix()
        module = _module_name(path)
        line_suppressions: dict[int, frozenset[str]] = {}
        file_suppressions: set[str] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            if "#" not in text:
                continue
            match = _SUPPRESS_FILE.search(text)
            if match:
                file_suppressions.update(match.group(1).split(","))
                continue
            match = _SUPPRESS_LINE.search(text)
            if match:
                line_suppressions[lineno] = frozenset(match.group(1).split(","))
        return cls(
            path=path,
            rel_path=rel,
            module=module,
            source=source,
            tree=tree,
            line_suppressions=line_suppressions,
            file_suppressions=frozenset(file_suppressions),
        )


def _module_name(path: Path) -> str:
    """Dotted module name, inferred from the path (``src`` layout aware).

    Works for files anywhere on disk (test fixtures build throwaway
    trees under ``/tmp``): the module path starts at the *last* ``src``
    component if present, else at the last ``benchmarks`` component
    (the repo's top-level benchmark suite — checked before ``repro``
    because a checkout directory itself named ``repro`` would otherwise
    swallow every benchmark into the root package), else at the first
    ``repro`` component, else it is just the file's stem.
    """
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("src"):][1:]
    elif "benchmarks" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("benchmarks"):]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem


@dataclass
class Project:
    """Every parsed module of one lint run, plus the repo root."""

    root: Path
    modules: list[ModuleInfo] = field(default_factory=list)
    #: Files that failed to parse: (rel_path, message).
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    #: The active :class:`repro.lint.config.LintConfig` (set by the
    #: runner; rules read scopes and the layer DAG from here).
    config: "object | None" = None

    @classmethod
    def load(
        cls, root: Path, files: Iterable[Path], config: "object | None" = None
    ) -> "Project":
        project = cls(root=root, config=config)
        for path in sorted(files):
            try:
                project.modules.append(ModuleInfo.parse(path, root))
            except (SyntaxError, ValueError, OSError) as exc:
                rel = path.relative_to(root).as_posix()
                project.parse_errors.append((rel, f"{type(exc).__name__}: {exc}"))
        return project

    def module_by_rel_path(self, rel_path: str) -> ModuleInfo | None:
        for module in self.modules:
            if module.rel_path == rel_path:
                return module
        return None


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding :class:`Violation` objects.  ``check`` receives the whole
    :class:`Project`; module-scoped rules loop over ``project.modules``
    (usually filtered by the rule's configured scope), project-scoped
    rules (like the paper-fidelity manifest check) look up exactly the
    files they audit.
    """

    #: Unique rule id, e.g. ``"det-wall-clock"``; families share a prefix.
    name: str = ""
    #: Rule family: determinism | layering | concurrency | fidelity | races.
    family: str = ""
    #: One-line description for ``lint --list-rules`` and the docs.
    description: str = ""

    def check(self, project: Project) -> Iterator[Violation]:
        raise NotImplementedError

    # Convenience for subclasses.
    def violation(
        self, module_or_path: "ModuleInfo | str", node_or_line, message: str
    ) -> Violation:
        if isinstance(module_or_path, ModuleInfo):
            path = module_or_path.rel_path
        else:
            path = module_or_path
        if isinstance(node_or_line, ast.AST):
            line = getattr(node_or_line, "lineno", 1)
            col = getattr(node_or_line, "col_offset", 0)
        else:
            line, col = int(node_or_line), 0
        return Violation(
            rule=self.name,
            path=path,
            line=line,
            col=col,
            message=message,
        )


#: Global registry, populated by the ``@register`` decorator at import
#: time of :mod:`repro.lint.rules`.
_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.name:
        raise ValueError(f"rule {rule_cls.__name__} has no name")
    if rule_cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {rule_cls.name!r}")
    _REGISTRY[rule_cls.name] = rule_cls
    return rule_cls


def all_rules() -> tuple[type[Rule], ...]:
    """Every registered rule class, sorted by name (stable output order)."""
    import repro.lint.rules  # noqa: F401  (populates the registry)

    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def rules_by_name() -> dict[str, type[Rule]]:
    import repro.lint.rules  # noqa: F401

    return dict(_REGISTRY)


def qualified_name(node: ast.AST) -> str | None:
    """Dotted name of a Name/Attribute chain (``a.b.c``), else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local alias -> imported dotted module/object name.

    ``import numpy as np`` yields ``{"np": "numpy"}``;
    ``from numpy import random as nr`` yields ``{"nr": "numpy.random"}``.
    Relative imports are skipped (the layering rule handles those with
    package context; alias-based rules only care about stdlib/numpy).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    # "import a.b" binds the root name "a" only.
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def resolve_call_target(node: ast.Call, aliases: Mapping[str, str]) -> str | None:
    """Fully-qualified dotted target of a call, best effort.

    ``np.random.seed(...)`` with ``{"np": "numpy"}`` resolves to
    ``"numpy.random.seed"``; unresolvable targets return the local
    dotted name unchanged (or ``None`` for computed targets).
    """
    dotted = qualified_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    full_head = aliases.get(head, head)
    return f"{full_head}.{rest}" if rest else full_head


def type_checking_lines(tree: ast.Module) -> set[int]:
    """Line numbers inside ``if TYPE_CHECKING:`` blocks (to be ignored
    by import-graph rules — typing-only imports are not runtime edges)."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = qualified_name(test) if isinstance(test, (ast.Name, ast.Attribute)) else None
        if name in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            for child in node.body:
                for sub in ast.walk(child):
                    lineno = getattr(sub, "lineno", None)
                    if lineno is not None:
                        lines.add(lineno)
    return lines


def walk_functions(
    tree: ast.Module,
) -> Iterator["ast.FunctionDef | ast.AsyncFunctionDef"]:
    """Every function/method (sync and async) in definition order."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
