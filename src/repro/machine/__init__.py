"""Machine models: Table I CPU presets and the simulated machine.

:class:`~repro.machine.machine.Machine` is the top-level object the
attacks run against: it bundles a :class:`~repro.machine.specs.MachineSpec`
(one of the four Table I CPUs or a custom configuration), one simulated
core (the frontend engine, which also runs two hardware threads
concurrently, and the L1I), and the measurement facilities (cycle timer,
RAPL interface, perf counters).
"""

from repro.machine.specs import MachineSpec, GOLD_6226, XEON_E2174G, XEON_E2286G, XEON_E2288G, ALL_SPECS, spec_by_name
from repro.frontend.engine import SmtRunResult
from repro.frontend.lsd import LSD_CAPACITY
from repro.machine.machine import Machine
from repro.machine.trace import LoopTrace, render_trace, trace_loop

__all__ = [
    "MachineSpec",
    "GOLD_6226",
    "XEON_E2174G",
    "XEON_E2286G",
    "XEON_E2288G",
    "ALL_SPECS",
    "spec_by_name",
    "SmtRunResult",
    "LSD_CAPACITY",
    "Machine",
    "LoopTrace",
    "trace_loop",
    "render_trace",
]
