"""Forward dataflow framework over function bodies.

Two small reusable pieces, shared by the ``det-set-iteration`` rule
and the ``race-*`` family:

* :func:`fixpoint_functions` — a module-level fixed point: accept
  functions whose bodies satisfy a predicate, feeding already-accepted
  names back in until nothing changes;
* :class:`ForwardPass` — a statement-ordered forward walk of one
  function body that tracks ``await`` points, ``async with`` lock
  scopes and the stack of governing branch tests, with overridable
  hooks for loads/stores/calls.  The race rules are thin subclasses.

Everything here is *lexical* dataflow: statements are visited in source
order and loops are traversed once, so "an await occurs between the
load and the store" means "an await appears between them in the source".
That approximation is deliberate — it is deterministic, cheap (one walk
per function) and errs toward reporting the racy shape rather than
proving schedules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = [
    "fixpoint_functions",
    "GuardFrame",
    "ForwardPass",
]


def fixpoint_functions(
    tree: ast.AST,
    accepts: Callable[[ast.AST, frozenset[str]], bool],
) -> frozenset[str]:
    """Module-level function names accepted by ``accepts``, to a fixed point.

    ``accepts(func_node, accepted_so_far)`` is re-asked with the growing
    accepted set until nothing changes, so chains resolve regardless of
    definition order (``def a(): return b()`` before ``def b(): return
    set(...)``).  This is the generalisation of the set-returner pass
    the ``det-set-iteration`` rule shipped in PR 5 (which now calls it).
    """
    functions: dict[str, ast.AST] = {}
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = node
    accepted: set[str] = set()
    changed = True
    while changed:
        changed = False
        frozen = frozenset(accepted)
        for name, func in functions.items():
            if name not in accepted and accepts(func, frozen):
                accepted.add(name)
                changed = True
    return frozenset(accepted)


@dataclass(frozen=True)
class GuardFrame:
    """One governing branch test on the path to the current statement."""

    test: ast.expr
    #: Await count when the test evaluated.
    await_count: int


class ForwardPass:
    """Statement-ordered forward walk of one function body.

    Maintains three pieces of execution context while walking:

    * :attr:`await_count` — a monotone counter bumped at every
      ``await`` expression, ``async for`` and ``async with`` (their
      protocols suspend too).  "Did an await happen between two
      program points" is a counter comparison;
    * :attr:`lock_depth` — depth of enclosing ``async with`` blocks
      whose context expression *names a lock* (its dotted name contains
      ``"lock"``, case-insensitive) — the sanctioned way to make a
      read-modify-write across an await atomic;
    * :attr:`guards` — the stack of :class:`GuardFrame` branch tests
      governing the current statement (``if``/``while``/ternary-free:
      statements only).

    Subclasses override the ``on_*`` hooks.  Nested function/class
    definitions are *not* descended into — they are separate scopes with
    their own passes.
    """

    def __init__(self) -> None:
        self.await_count = 0
        self.lock_depth = 0
        self.guards: list[GuardFrame] = []

    # -- hooks ----------------------------------------------------------
    def on_await(self, node: ast.AST) -> None:  # pragma: no cover - hook
        pass

    def on_load(self, node: ast.expr) -> None:  # pragma: no cover - hook
        """A Name or Attribute read in evaluation position."""

    def on_store(
        self, target: ast.expr, value: ast.expr | None, stmt: ast.stmt,
        *, augmented: bool = False,
    ) -> None:  # pragma: no cover - hook
        """A Name/Attribute/Subscript assignment target being written."""

    def on_call(self, node: ast.Call) -> None:  # pragma: no cover - hook
        pass

    def on_global(self, names: Iterable[str]) -> None:  # pragma: no cover
        pass

    # -- driving --------------------------------------------------------
    def run(self, func: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        self.await_count = 0
        self.lock_depth = 0
        self.guards = []
        self._visit_body(func.body)

    def _visit_body(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # separate scope
        if isinstance(stmt, ast.Global):
            self.on_global(stmt.names)
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value)
            for target in stmt.targets:
                self._store_target(target, stmt.value, stmt)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_expr(stmt.value)
                self._store_target(stmt.target, stmt.value, stmt)
            return
        if isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value)
            # The target is read and written by the same statement.
            self._scan_expr(stmt.target, loads_only=True)
            self.on_store(stmt.target, stmt.value, stmt, augmented=True)
            return
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test)
            frame = GuardFrame(test=stmt.test, await_count=self.await_count)
            self.guards.append(frame)
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
            self.guards.pop()
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test)
            frame = GuardFrame(test=stmt.test, await_count=self.await_count)
            self.guards.append(frame)
            self._visit_body(stmt.body)
            self.guards.pop()
            self._visit_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter)
            if isinstance(stmt, ast.AsyncFor):
                self.await_count += 1
                self.on_await(stmt)
            self._store_target(stmt.target, None, stmt)
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            locked = False
            for item in stmt.items:
                self._scan_expr(item.context_expr)
                if isinstance(stmt, ast.AsyncWith) and _names_a_lock(
                    item.context_expr
                ):
                    locked = True
                if item.optional_vars is not None:
                    self._store_target(item.optional_vars, None, stmt)
            if isinstance(stmt, ast.AsyncWith):
                self.await_count += 1
                self.on_await(stmt)
            if locked:
                self.lock_depth += 1
            self._visit_body(stmt.body)
            if locked:
                self.lock_depth -= 1
            return
        if isinstance(stmt, ast.Try):
            self._visit_body(stmt.body)
            for handler in stmt.handlers:
                self._visit_body(handler.body)
            self._visit_body(stmt.orelse)
            self._visit_body(stmt.finalbody)
            return
        # Leaf statements: scan every contained expression.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child)

    def _store_target(
        self, target: ast.expr, value: ast.expr | None, stmt: ast.stmt
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store_target(element, None, stmt)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            # The object whose attribute/item is written is itself read.
            self._scan_expr(target.value, loads_only=True)
        self.on_store(target, value, stmt)

    def _scan_expr(self, expr: ast.expr, loads_only: bool = False) -> None:
        """Walk one expression: count awaits, report loads and calls.

        ``loads_only`` visits an assignment-target subtree where awaits
        cannot occur but the value object is read (``self.x.y = ...``).
        Lambda and generator-expression bodies are deferred execution,
        not part of this statement's flow, so they are not descended.
        """
        if isinstance(expr, (ast.Lambda, ast.GeneratorExp)):
            return
        if isinstance(expr, ast.Await) and not loads_only:
            self.await_count += 1
            self.on_await(expr)
        elif isinstance(expr, (ast.Name, ast.Attribute)) and isinstance(
            getattr(expr, "ctx", ast.Load()), ast.Load
        ):
            self.on_load(expr)
        elif isinstance(expr, ast.Call) and not loads_only:
            self.on_call(expr)
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan_expr(child, loads_only=loads_only)


def _names_a_lock(expr: ast.expr) -> bool:
    """Heuristic: does this context expression name a lock?

    ``async with self._send_lock:`` / ``async with self.state_lock:``
    qualify; so does any dotted name (or call on one) whose text
    contains ``lock``.  Documented in ``docs/linting.md`` — holding a
    *semaphore* or custom mutex exempt from the race rule requires a
    lock-ish name, which is also the readable thing to call it.
    """
    node = expr
    if isinstance(node, ast.Call):
        node = node.func
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return any("lock" in part.lower() for part in parts)
