"""Rule modules; importing this package populates the registry.

Families (rule-name prefixes):

* ``det-*``   — determinism (:mod:`repro.lint.rules.determinism`);
* ``layer-*`` — layering / import DAG (:mod:`repro.lint.rules.layering`);
* ``async-*`` — event-loop hygiene (:mod:`repro.lint.rules.concurrency`);
* ``fidelity-*`` — paper-constant drift (:mod:`repro.lint.rules.fidelity`);
* ``race-*``  — asyncio race shapes (:mod:`repro.lint.rules.races`).
"""

from repro.lint.rules import (
    concurrency,
    determinism,
    fidelity,
    layering,
    races,
)

__all__ = [
    "concurrency",
    "determinism",
    "fidelity",
    "layering",
    "races",
]
