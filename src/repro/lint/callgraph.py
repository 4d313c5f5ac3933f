"""Project-wide call graph, best effort, for cross-function rules.

The graph answers the two questions interprocedural rules ask:

* *what does this call site invoke?* — resolved through local scopes,
  class bodies (``self.method()`` / ``cls.method()``), module-level
  defs, assigned lambdas and import aliases (``from x import f as g``);
* *what is the callee like?* — async or not, its parameter names, its
  decorators.

Resolution is deliberately conservative: a target that cannot be pinned
to a project function resolves to nothing (``callee_of`` returns
``None``), never to a guess.  Dynamic dispatch through arbitrary
objects, inheritance across modules and monkey-patching are out of
scope — the rules built on top only act on *resolved* edges, so an
unresolvable call can hide a problem but never invent one.

Build cost is one AST walk per module; :func:`build_call_graph`
memoises the graph on the :class:`~repro.lint.core.Project`, so every
rule that asks shares a single construction per lint run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.core import ModuleInfo, Project, import_aliases, qualified_name

__all__ = ["FunctionNode", "CallSite", "CallGraph", "build_call_graph"]


@dataclass(frozen=True)
class FunctionNode:
    """One function-like definition in the project."""

    #: Fully-qualified name: ``module.Class.method`` / ``module.func`` /
    #: ``module.outer.<locals>.inner`` / ``module.name`` for an
    #: assigned lambda.
    qualname: str
    module: str
    name: str
    is_async: bool
    #: "function" | "method" | "lambda"
    kind: str
    lineno: int
    #: Positional parameter names in order (posonly + args), then
    #: keyword-only names; ``self``/``cls`` included for methods.
    params: tuple[str, ...]
    #: Decorator dotted names, best effort (calls unwrap to their func).
    decorators: tuple[str, ...] = ()


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge."""

    #: Qualname of the enclosing function, or ``module.<module>``.
    caller: str
    callee: str
    module: str
    lineno: int
    col: int


class CallGraph:
    """See module docstring; construct via :func:`build_call_graph`."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionNode] = {}
        self.calls: list[CallSite] = []
        #: id(ast.Call) -> callee qualname (valid while the Project's
        #: trees are alive, which is the lint run's lifetime).
        self._resolved: dict[int, str] = {}

    # -- queries --------------------------------------------------------
    def callee_of(self, call: ast.Call) -> FunctionNode | None:
        """The project function this call site resolves to, if any."""
        qualname = self._resolved.get(id(call))
        return self.functions.get(qualname) if qualname is not None else None

    def callees(self, qualname: str) -> list[CallSite]:
        return [site for site in self.calls if site.caller == qualname]

    def callers(self, qualname: str) -> list[CallSite]:
        return [site for site in self.calls if site.callee == qualname]


def _lambda_params(node: ast.Lambda) -> tuple[str, ...]:
    return tuple(
        arg.arg
        for arg in (
            list(node.args.posonlyargs)
            + list(node.args.args)
            + list(node.args.kwonlyargs)
        )
    )


class _Scope:
    """Per-module indexing and resolution state."""

    def __init__(self, module: str, aliases: dict[str, str], graph: CallGraph):
        self.module = module
        self.aliases = aliases
        self.graph = graph
        #: module-level name -> qualname (functions and assigned lambdas).
        self.module_defs: dict[str, str] = {}
        #: class name -> {method name -> qualname}.
        self.class_methods: dict[str, dict[str, str]] = {}

    # -- pass 1: index every definition --------------------------------
    def index_body(
        self, body: list[ast.stmt], prefix: str, class_name: str | None
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{stmt.name}"
                self._add_function(
                    stmt,
                    qualname,
                    kind="method" if class_name is not None else "function",
                )
                if class_name is not None:
                    self.class_methods.setdefault(class_name, {})[
                        stmt.name
                    ] = qualname
                elif prefix == self.module:
                    self.module_defs[stmt.name] = qualname
                self.index_body(
                    stmt.body, prefix=f"{qualname}.<locals>", class_name=None
                )
            elif isinstance(stmt, ast.ClassDef):
                self.index_body(
                    stmt.body, prefix=f"{prefix}.{stmt.name}",
                    class_name=stmt.name,
                )
            elif (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Lambda)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                name = stmt.targets[0].id
                qualname = f"{prefix}.{name}"
                self.graph.functions[qualname] = FunctionNode(
                    qualname=qualname,
                    module=self.module,
                    name=name,
                    is_async=False,
                    kind="lambda",
                    lineno=stmt.lineno,
                    params=_lambda_params(stmt.value),
                )
                if class_name is None and prefix == self.module:
                    self.module_defs[name] = qualname
            elif isinstance(stmt, (ast.If, ast.Try, ast.With)):
                # Conditional/guarded definitions still define names.
                for inner in ast.iter_child_nodes(stmt):
                    if isinstance(inner, ast.stmt):
                        self.index_body([inner], prefix, class_name)
                    elif isinstance(inner, ast.excepthandler):
                        self.index_body(inner.body, prefix, class_name)

    def _add_function(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        qualname: str,
        kind: str,
    ) -> None:
        decorators = tuple(
            name
            for name in (
                qualified_name(d.func if isinstance(d, ast.Call) else d)
                for d in node.decorator_list
            )
            if name is not None
        )
        params = tuple(
            arg.arg
            for arg in (
                list(node.args.posonlyargs)
                + list(node.args.args)
                + list(node.args.kwonlyargs)
            )
        )
        self.graph.functions[qualname] = FunctionNode(
            qualname=qualname,
            module=self.module,
            name=node.name,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            kind=kind,
            lineno=node.lineno,
            params=params,
            decorators=decorators,
        )

    # -- pass 2: resolve every call site --------------------------------
    def resolve_body(
        self,
        body: list[ast.stmt],
        caller: str,
        class_name: str | None,
        local_defs: list[dict[str, str]],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if class_name is not None and stmt.name in self.class_methods.get(
                    class_name, {}
                ):
                    qualname = self.class_methods[class_name][stmt.name]
                else:
                    qualname = self._lookup_def(stmt.name, caller, local_defs)
                nested = {
                    inner.name: f"{qualname}.<locals>.{inner.name}"
                    for inner in ast.walk(stmt)
                    if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and inner is not stmt
                }
                self.resolve_body(
                    stmt.body,
                    caller=qualname,
                    class_name=class_name,
                    local_defs=local_defs + [nested],
                )
                # Decorator expressions execute in the enclosing scope.
                for decorator in stmt.decorator_list:
                    self._resolve_exprs(decorator, caller, class_name, local_defs)
            elif isinstance(stmt, ast.ClassDef):
                self.resolve_body(
                    stmt.body,
                    caller=caller,
                    class_name=stmt.name,
                    local_defs=local_defs,
                )
            else:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        self._resolve_call(node, caller, class_name, local_defs)

    def _resolve_exprs(
        self,
        expr: ast.expr,
        caller: str,
        class_name: str | None,
        local_defs: list[dict[str, str]],
    ) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._resolve_call(node, caller, class_name, local_defs)

    def _lookup_def(
        self, name: str, caller: str, local_defs: list[dict[str, str]]
    ) -> str:
        for frame in reversed(local_defs):
            if name in frame:
                return frame[name]
        return f"{caller}.<locals>.{name}"

    def _resolve_call(
        self,
        call: ast.Call,
        caller: str,
        class_name: str | None,
        local_defs: list[dict[str, str]],
    ) -> None:
        dotted = qualified_name(call.func)
        if dotted is None:
            return
        qualname = self._resolve_dotted(dotted, class_name, local_defs)
        if qualname is None or qualname not in self.graph.functions:
            return
        self.graph._resolved[id(call)] = qualname
        self.graph.calls.append(
            CallSite(
                caller=caller,
                callee=qualname,
                module=self.module,
                lineno=call.lineno,
                col=call.col_offset,
            )
        )

    def _resolve_dotted(
        self,
        dotted: str,
        class_name: str | None,
        local_defs: list[dict[str, str]],
    ) -> str | None:
        parts = dotted.split(".")
        if parts[0] in ("self", "cls") and class_name is not None:
            if len(parts) == 2:
                return self.class_methods.get(class_name, {}).get(parts[1])
            return None
        if len(parts) == 1:
            for frame in reversed(local_defs):
                if parts[0] in frame:
                    return frame[parts[0]]
            target = self.aliases.get(parts[0])
            if target is not None:
                return target if target in self.graph.functions else None
            return None
        # "mod.func" / "pkg.mod.func" through an import alias.
        head = self.aliases.get(parts[0], parts[0])
        candidate = ".".join([head] + parts[1:])
        return candidate if candidate in self.graph.functions else None


def build_call_graph(project: Project) -> CallGraph:
    """The project's call graph, built once per lint run and memoised.

    Modules are added in two passes over the whole project — every
    definition is indexed before any call resolves — so cross-module
    edges through ``from x import f`` aliases work regardless of file
    order.
    """
    cached = getattr(project, "_call_graph", None)
    if cached is not None:
        return cached
    graph = CallGraph()
    scopes: list[tuple[ModuleInfo, _Scope]] = []
    for module in project.modules:
        aliases = import_aliases(module.tree)
        scope = _Scope(module=module.module, aliases=aliases, graph=graph)
        scope.index_body(module.tree.body, prefix=module.module, class_name=None)
        scopes.append((module, scope))
    for module, scope in scopes:
        scope.resolve_body(
            module.tree.body,
            caller=f"{module.module}.<module>",
            class_name=None,
            local_defs=[scope.module_defs],
        )
    project._call_graph = graph  # type: ignore[attr-defined]
    return graph

