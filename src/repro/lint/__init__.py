"""``repro.lint``: AST-based determinism / layering / fidelity linter.

The reproduction's correctness argument is structural — content-hashed
point keys assume deterministic factories, the service assumes a
non-blocking event loop, the model assumes the paper's SDM/Table I
constants — so this package checks those structures mechanically:

* **determinism** (``det-*``): no process-global RNGs anywhere, no
  wall-clock/OS-entropy/``id()`` reads in the simulator packages, no
  hash-ordered set iteration feeding returned results;
* **layering** (``layer-*``): every runtime import is an edge of the
  configured DAG (:data:`repro.lint.config.DEFAULT_LAYERS`);
* **concurrency** (``async-*``): no blocking calls inside ``async
  def`` bodies in the service layer;
* **paper fidelity** (``fidelity-*``): simulator constants and doc
  phrases match :mod:`repro.lint.manifest` exactly;
* **asyncio races** (``race-*``): no read-modify-writes of shared
  state across ``await`` points without a lock, no dropped
  ``create_task`` results, no never-awaited coroutine calls.

The ``race-*`` family is built on a shared interprocedural core: a
project call graph (:mod:`repro.lint.callgraph`) and a forward dataflow
framework (:mod:`repro.lint.dataflow`).  The service and cluster wire
protocols are not linted: their frames are typed dataclasses decoded
strictly at the socket (:mod:`repro.service.frames`,
:mod:`repro.cluster.protocol`), so a malformed frame fails at run time.

Run it as ``python -m repro lint [--format json] [--changed [REF]]``
or programmatically::

    from repro.lint import run_lint
    report = run_lint(".")
    assert report.exit_code() == 0, report.summary()

Every finding is an error.  The one way to tolerate a finding is a
suppression comment (``# repro: lint-disable=<rule>`` on the line, or
``# repro: lint-disable-file=<rule>`` for the file); see
``docs/linting.md`` for the rule catalogue and the suppression syntax.
"""

from repro.lint.callgraph import CallGraph, CallSite, FunctionNode, build_call_graph
from repro.lint.config import DEFAULT_LAYERS, LintConfig, default_config
from repro.lint.core import (
    ModuleInfo,
    Project,
    Rule,
    Violation,
    all_rules,
    rules_by_name,
)
from repro.lint.dataflow import ForwardPass, fixpoint_functions
from repro.lint.runner import Finding, LintReport, changed_files, run_lint

__all__ = [
    "CallGraph",
    "CallSite",
    "DEFAULT_LAYERS",
    "Finding",
    "ForwardPass",
    "FunctionNode",
    "LintConfig",
    "LintReport",
    "ModuleInfo",
    "Project",
    "Rule",
    "Violation",
    "all_rules",
    "build_call_graph",
    "changed_files",
    "default_config",
    "fixpoint_functions",
    "rules_by_name",
    "run_lint",
]
