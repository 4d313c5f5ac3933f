"""Per-iteration execution tracing: watch the frontend change paths.

Attack development lives and dies on understanding *when* delivery moves
between LSD, DSB, and MITE.  :func:`trace_loop` runs a loop iteration by
iteration (no steady-state extrapolation) and keeps each iteration's
:class:`~repro.frontend.engine.LoopReport`; :func:`render_trace` draws the
timeline as one character per iteration::

    LLLLLLLLDDMMMMMMMM...
    ^ streaming  ^ eviction burst redirected delivery to MITE

Legend: ``L`` = LSD-dominated, ``D`` = DSB, ``M`` = MITE, lowercase when
the iteration also suffered an LSD flush.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.frontend.engine import LoopReport
from repro.frontend.paths import DeliveryPath
from repro.isa.program import LoopProgram
from repro.machine.machine import Machine

__all__ = ["LoopTrace", "trace_loop", "render_trace"]


@dataclass(frozen=True)
class LoopTrace:
    """Full iteration-level trace of one loop execution."""

    label: str
    #: One single-iteration report per simulated iteration, in order.
    reports: tuple[LoopReport, ...]

    @property
    def total_cycles(self) -> float:
        return sum(report.cycles for report in self.reports)

    def paths(self) -> list[DeliveryPath]:
        """Each iteration's dominant delivery path."""
        return [report.dominant_path() for report in self.reports]

    def path_transitions(self) -> list[int]:
        """Iterations where the dominant path changed from the previous."""
        paths = self.paths()
        return [i for i in range(1, len(paths)) if paths[i] is not paths[i - 1]]

    def iterations_on(self, path: DeliveryPath) -> int:
        return self.paths().count(path)


def trace_loop(
    machine: Machine,
    program: LoopProgram,
    max_iterations: int = 200,
    thread: int = 0,
    smt_active: bool = False,
) -> LoopTrace:
    """Execute up to ``max_iterations`` of ``program``, recording each.

    Uses the engine's single-iteration API directly, so every iteration
    is simulated (no extrapolation) and state mutations are identical to
    a normal run of the same length.
    """
    if max_iterations < 1:
        raise ExecutionError("max_iterations must be >= 1")
    engine = machine.engine
    count = min(program.iterations, max_iterations)
    reports = tuple(
        [engine.run_iteration(program, thread, smt_active) for _ in range(count)]
    )
    return LoopTrace(label=program.label or "loop", reports=reports)


def render_trace(trace: LoopTrace, width: int = 72) -> str:
    """ASCII timeline: one path symbol per iteration, wrapped at ``width``."""
    chars = {DeliveryPath.LSD: "L", DeliveryPath.DSB: "D", DeliveryPath.MITE: "M"}
    symbols = "".join(
        chars[path].lower() if report.lsd_flushes else chars[path]
        for path, report in zip(trace.paths(), trace.reports)
    )
    lines = [f"trace {trace.label!r}: {len(trace.reports)} iterations, "
             f"{trace.total_cycles:.0f} cycles"]
    for offset in range(0, len(symbols), width):
        lines.append(f"  {offset:>5}  {symbols[offset:offset + width]}")
    transitions = trace.path_transitions()
    if transitions:
        lines.append(f"  path transitions at iterations: {transitions[:12]}")
    return "\n".join(lines)
