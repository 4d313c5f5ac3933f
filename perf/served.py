"""The sweep service's real CLI entry point under the benchmark's tracing.

    python perf/served.py --mode spans|profile --spool DIR -- serve ARGS...

Installs ``tracing.py`` in the server process (spans, or one profiler per
thread: the service computes its points in a worker thread), runs
``repro.cli.main`` with the arguments after ``--``, and writes the spans
or profiles to ``DIR`` once the server has stopped.  Only the traced
phases use it; end-to-end numbers come from ``python -m repro serve``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import tracing


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True, choices=("spans", "profile"))
    parser.add_argument("--spool", type=Path, required=True)
    args = parser.parse_args(argv[:split])

    from repro.cli import main as cli_main

    tracer = tracing.install(args.mode, args.spool)
    if args.mode == "profile":
        tracing.profile_threads(tracer)
        tracer.start_profile()
    try:
        return cli_main(argv[split + 1:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
