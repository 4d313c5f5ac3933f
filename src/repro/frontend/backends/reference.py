"""``ReferenceBackend``: a name ``perf/`` wraps when it traces runs."""

from __future__ import annotations

from repro.frontend.engine import FrontendEngine, LoopReport
from repro.isa.program import LoopProgram

__all__ = ["ReferenceBackend"]


class ReferenceBackend:
    """Exists only because ``perf/`` names it; runs ``engine.run_loop``."""

    name = "reference"

    def run_loop(
        self,
        engine: FrontendEngine,
        program: LoopProgram,
        thread: int,
        smt_active: bool,
        exact: bool,
    ) -> LoopReport:
        return engine.run_loop(program, thread, smt_active, exact)
