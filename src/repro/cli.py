"""Command-line interface: ``python -m repro <command>``.

Gives each of the library's headline capabilities a one-line invocation:

* ``machines``    — list the simulated Table I CPUs;
* ``transmit``    — run a covert channel end to end;
* ``probe``       — time the three frontend paths (Figure 4 style);
* ``fingerprint`` — detect the machine's microcode/LSD state;
* ``spectre``     — recover a secret via Spectre v1 over a chosen channel;
* ``sgx``         — run an SGX enclave attack;
* ``defense``     — print the mitigation/attack matrix;
* ``scenario``    — list/describe/run/submit declarative attack
  scenarios (the ``repro.scenarios`` registry, see ``docs/scenarios.md``);
* ``synth``       — run/minimize/report automated attack-program
  synthesis against the defense layer (``repro.synth``, see
  ``docs/synthesis.md``; ``--workers N`` shards candidate batches
  across the cluster fabric);
* ``sweep``       — grid-sweep channel parameters (parallel + cached;
  ``--workers N`` shards it across the distributed fabric);
* ``serve``       — run the sweep service on a Unix socket (and,
  optionally, a TCP listener via ``--tcp``); ``--state-dir`` makes the
  queue crash-safe, ``--auth`` gates clients by token and quota;
* ``submit``      — submit a grid to a running service, stream progress;
* ``watch``       — mirror a running service's event feed as JSONL;
* ``metrics``     — fetch a running service's metrics snapshot;
* ``worker``      — join a cluster coordinator as a compute node;
* ``lint``        — run the determinism/layering/fidelity linter
  (``repro.lint``).

All commands accept ``--seed`` for exact reproducibility.  ``sweep``
additionally takes ``--jobs N`` (worker processes), ``--cache-dir``
(on-disk result cache, default ``.repro-cache``) and ``--no-cache``.
``sweep --progress`` and ``submit`` stream JSONL events (the service's
event format, see ``docs/service.md``) to **stderr**; stdout carries
only results, so piping stays clean (``watch`` is the exception: its
event stream *is* the result, so it goes to stdout).  Verbs that dial
a service (``submit``, ``watch``, ``metrics``, ``scenario submit``)
take ``--token`` (default ``$REPRO_SERVICE_TOKEN``) for servers
started with ``--auth``, and ``--timeout`` for a per-read deadline.

``sweep``, ``serve``, ``worker``, ``scenario run``, ``synth run`` and
``synth minimize`` accept ``--backend {reference,vectorized}`` and
ignore it: there is one simulator, and the flag stays only because the
benchmark under ``perf/`` passes it.

A flag that mirrors a spec field (``SweepSpec``, ``ScenarioSweepSpec``,
``SearchConfig``, ``OracleConfig``) defaults to ``None`` so the spec
states the default; ``sweep`` runs the ``SweepSpec`` ``submit`` sends.
:func:`repro.cluster.make_executor` picks the executor for ``--jobs``/
``--workers``/``--bind``.  Each subparser names its handler.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Sequence

from repro.analysis.bits import alternating_bits, random_bits, string_to_bits
from repro.channels.probes import path_timing_samples
from repro.errors import ConfigurationError, ReproError
from repro.frontend.backends import NAMES as BACKEND_NAMES
from repro.frontend.lsd import LSD_CAPACITY
from repro.frontend.paths import DeliveryPath
from repro.machine.machine import Machine
from repro.machine.specs import ALL_SPECS, spec_by_name
from repro.service.spec import (
    CHANNEL_NAMES,
    SweepSpec,
    build_channel,
    parse_param_axis,
)
from repro.wire import canonical_json

__all__ = ["main", "build_parser"]

DEFAULT_SOCKET = ".repro-service.sock"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Leaky Frontends (HPCA 2022) reproduction toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="experiment seed")
    # ``sweep``/``submit``: --seed is SweepSpec.base_seed, default and all.
    spec_seed = argparse.ArgumentParser(add_help=False)
    spec_seed.add_argument("--seed", type=int, help="experiment seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "machines", help="list the simulated Table I CPUs", parents=[common]
    ).set_defaults(handler=_cmd_machines)

    transmit = sub.add_parser(
        "transmit", help="run a covert channel", parents=[common]
    )
    transmit.set_defaults(handler=_cmd_transmit)
    transmit.add_argument("--machine", default="Gold 6226")
    transmit.add_argument(
        "--channel", default="eviction", choices=list(CHANNEL_NAMES)
    )
    transmit.add_argument(
        "--variant", default="stealthy", choices=["stealthy", "fast"]
    )
    transmit.add_argument("--message", default=None, help="bit string, e.g. 0110")
    transmit.add_argument("--bits", type=int, default=64, help="random-bit count")

    probe = sub.add_parser(
        "probe", help="time the three frontend paths", parents=[common]
    )
    probe.set_defaults(handler=_cmd_probe)
    probe.add_argument("--machine", default="Gold 6226")
    probe.add_argument("--samples", type=int, default=100)

    fingerprint = sub.add_parser(
        "fingerprint", help="detect the microcode/LSD state", parents=[common]
    )
    fingerprint.set_defaults(handler=_cmd_fingerprint)
    fingerprint.add_argument("--machine", default="Gold 6226")
    fingerprint.add_argument(
        "--patch", default=None, choices=[None, "patch1", "patch2"],
        help="apply a microcode patch before probing",
    )

    spectre = sub.add_parser(
        "spectre", help="Spectre v1 secret recovery", parents=[common]
    )
    spectre.set_defaults(handler=_cmd_spectre)
    spectre.add_argument("--machine", default="Gold 6226")
    spectre.add_argument("--secret", default="SecretKey!")
    spectre.add_argument(
        "--channel",
        default="frontend-dsb",
        choices=[
            "mem-flush-reload",
            "l1d-flush-reload",
            "l1d-lru",
            "l1i-flush-reload",
            "l1i-prime-probe",
            "frontend-dsb",
        ],
    )

    sgx = sub.add_parser("sgx", help="attack an SGX enclave", parents=[common])
    sgx.set_defaults(handler=_cmd_sgx)
    sgx.add_argument("--machine", default="Xeon E-2174G")
    sgx.add_argument(
        "--mode", default="non-mt", choices=["non-mt", "mt", "power"]
    )
    sgx.add_argument(
        "--mechanism", default="eviction", choices=["eviction", "misalignment"]
    )
    sgx.add_argument("--bits", type=int, default=32)

    defense = sub.add_parser(
        "defense", help="mitigation/attack matrix", parents=[common]
    )
    defense.set_defaults(handler=_cmd_defense)
    defense.add_argument("--bits", type=int, default=32)

    scenario = sub.add_parser(
        "scenario",
        help="run declarative attack scenarios (docs/scenarios.md)",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser(
        "list", help="list the registered scenarios"
    ).set_defaults(handler=_cmd_scenario_list)
    describe = scenario_sub.add_parser(
        "describe", help="print one scenario's full spec"
    )
    describe.set_defaults(handler=_cmd_scenario_describe)
    describe.add_argument("name", help="registered scenario name")
    describe.add_argument(
        "--json",
        action="store_true",
        help="print the canonical JSON form instead of the table",
    )
    scenario_run = scenario_sub.add_parser(
        "run", help="run a scenario and check its success criteria"
    )
    scenario_run.set_defaults(handler=_cmd_scenario_run)
    scenario_run.add_argument("name", help="registered scenario name")
    scenario_run.add_argument(
        "--trials",
        type=int,
        default=None,
        help="override the spec's trial count",
    )
    scenario_run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the spec's base seed",
    )
    scenario_run.add_argument(
        "--json",
        action="store_true",
        help="print the pooled outcome as canonical JSON",
    )
    scenario_run.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="also write the scenario.* metrics snapshot as JSON",
    )
    _add_backend_argument(scenario_run)
    scenario_submit = scenario_sub.add_parser(
        "submit",
        help="submit a scenario parameter grid to a running service",
    )
    scenario_submit.set_defaults(handler=_cmd_scenario_submit)
    scenario_submit.add_argument("name", help="registered scenario name")
    scenario_submit.add_argument(
        "--socket", default=DEFAULT_SOCKET, help="Unix socket of the service"
    )
    scenario_submit.add_argument(
        "--param",
        action="append",
        required=True,
        metavar="NAME=V1,V2,...",
        help="grid axis over a scenario parameter, e.g. "
        "attempts_per_chunk=1,3,5 (repeat for multi-axis grids)",
    )
    scenario_submit.add_argument("--trials", type=int)
    scenario_submit.add_argument("--seed", type=int, help="sweep base seed")
    scenario_submit.add_argument("--priority", type=int)
    scenario_submit.add_argument("--label", help="job label for the event log")
    _add_client_auth_arguments(scenario_submit)

    synth = sub.add_parser(
        "synth",
        help="synthesise attack programs against the defenses "
        "(docs/synthesis.md)",
    )
    synth_sub = synth.add_subparsers(dest="synth_command", required=True)
    synth_run = synth_sub.add_parser(
        "run", help="run a search campaign and print its findings"
    )
    synth_run.set_defaults(handler=_cmd_synth_run)
    synth_run.add_argument("--seed", type=int, help="campaign seed")
    synth_run.add_argument(
        "--budget", type=int, help="oracle evaluations to spend"
    )
    synth_run.add_argument("--batch-size", type=int, help="candidates per round")
    synth_run.add_argument("--machine")
    synth_run.add_argument(
        "--bits", type=int, help="message bits per oracle run"
    )
    synth_run.add_argument("--training-bits", type=int)
    synth_run.add_argument(
        "--max-findings", type=int, help="stop after N findings"
    )
    synth_run.add_argument(
        "--shrink-budget",
        type=int,
        help="oracle evaluations the minimizer may spend per finding",
    )
    synth_run.add_argument(
        "--defense",
        action="append",
        metavar="M1+M2",
        help="mitigation stack findings are re-scored against, as "
        "'+'-joined names from repro.defense (repeat for several "
        "stacks; default: uniform-path-timing)",
    )
    synth_run.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial)"
    )
    synth_run.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard candidate batches across N cluster workers "
        "(0 = local execution); combines with --jobs",
    )
    synth_run.add_argument(
        "--bind",
        help="coordinator endpoint for cluster runs (see 'sweep --bind')",
    )
    synth_run.add_argument(
        "--shard-size", type=int, default=4, help="max points per shard"
    )
    synth_run.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk oracle-result cache (resumed campaigns replay "
        "cached candidates; default: no cache)",
    )
    synth_run.add_argument(
        "--json",
        action="store_true",
        help="print the full report as canonical JSON instead of the "
        "summary table",
    )
    synth_run.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the canonical JSON report to FILE",
    )
    synth_run.add_argument(
        "--scenarios-out",
        default=None,
        metavar="FILE",
        help="also write ScenarioSpec payloads for every finding "
        "(registrable via repro.scenarios)",
    )
    _add_backend_argument(synth_run)
    synth_minimize = synth_sub.add_parser(
        "minimize", help="shrink one candidate genome to its minimal "
        "still-leaking form"
    )
    synth_minimize.set_defaults(handler=_cmd_synth_minimize)
    synth_minimize.add_argument(
        "candidate",
        help="candidate genome as a JSON file path, or '-' for stdin",
    )
    synth_minimize.add_argument("--seed", type=int, default=0)
    synth_minimize.add_argument("--machine")
    synth_minimize.add_argument("--bits", type=int)
    synth_minimize.add_argument("--training-bits", type=int)
    synth_minimize.add_argument(
        "--budget", type=int, default=96, help="oracle evaluations to spend"
    )
    _add_backend_argument(synth_minimize)
    synth_report = synth_sub.add_parser(
        "report", help="summarise a saved campaign report"
    )
    synth_report.set_defaults(handler=_cmd_synth_report)
    synth_report.add_argument(
        "input", help="report JSON written by 'synth run --out'"
    )

    sweep = sub.add_parser(
        "sweep",
        help="grid-sweep channel parameters (parallel + cached)",
        parents=[spec_seed],
    )
    sweep.set_defaults(handler=_cmd_sweep)
    _add_grid_arguments(sweep)
    sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial)"
    )
    sweep.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="on-disk result cache directory",
    )
    sweep.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    sweep.add_argument(
        "--progress",
        action="store_true",
        help="stream per-point JSONL events to stderr",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard across N cluster workers (0 = local execution); "
        "combines with --jobs for per-worker process pools",
    )
    sweep.add_argument(
        "--bind",
        help="coordinator endpoint for cluster runs; an explicit --bind "
        "with --workers 0 waits for external workers started with "
        "'repro worker --connect' (default: loopback, ephemeral port)",
    )
    sweep.add_argument(
        "--shard-size",
        type=int,
        default=4,
        help="max grid points per dispatched shard",
    )
    _add_backend_argument(sweep)

    serve = sub.add_parser(
        "serve",
        help="run the sweep service on a Unix socket",
        parents=[common],
    )
    serve.set_defaults(handler=_cmd_serve)
    serve.add_argument(
        "--socket", default=DEFAULT_SOCKET, help="Unix socket path to listen on"
    )
    serve.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="additionally listen on TCP (no filesystem access control — "
        "bind to loopback or a trusted network, see docs/distributed.md)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1, help="worker processes per batch (1 = serial)"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="concurrently scheduled jobs"
    )
    serve.add_argument(
        "--batch-size", type=int, default=8, help="points per executor dispatch"
    )
    serve.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="on-disk result cache directory shared by all jobs",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    serve.add_argument(
        "--job-ttl",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="evict terminal jobs (and their event logs) after this many "
        "seconds; <= 0 keeps jobs forever (default: 3600)",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="persist submitted jobs to a write-ahead log in DIR; a "
        "restarted service reloads the queue and resumes unfinished "
        "jobs (docs/service.md)",
    )
    serve.add_argument(
        "--auth",
        default=None,
        metavar="FILE",
        help="JSON account file: per-client tokens plus quota and "
        "rate limits; unknown tokens get a typed deny frame "
        "(docs/service.md)",
    )
    _add_backend_argument(serve)

    submit = sub.add_parser(
        "submit",
        help="submit a sweep to a running service and stream progress",
        parents=[spec_seed],
    )
    submit.set_defaults(handler=_cmd_submit)
    submit.add_argument(
        "--socket", default=DEFAULT_SOCKET, help="Unix socket of the service"
    )
    _add_grid_arguments(submit)
    submit.add_argument("--priority", type=int)
    submit.add_argument("--label", help="job label for the event log")
    _add_client_auth_arguments(submit)

    watch = sub.add_parser(
        "watch",
        help="stream a running service's event feed as JSONL on stdout",
        parents=[common],
    )
    watch.set_defaults(handler=_cmd_watch)
    watch.add_argument(
        "--socket",
        default=DEFAULT_SOCKET,
        help="service endpoint (Unix socket path or tcp://host:port)",
    )
    watch.add_argument(
        "--kinds",
        default=None,
        metavar="K1,K2,...",
        help="only stream these event kinds (e.g. job-done,error)",
    )
    watch.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="exit after N events (default: stream until service stops)",
    )
    _add_client_auth_arguments(watch)

    metrics = sub.add_parser(
        "metrics",
        help="fetch a running service's metrics snapshot",
        parents=[common],
    )
    metrics.set_defaults(handler=_cmd_metrics)
    metrics.add_argument(
        "--socket",
        default=DEFAULT_SOCKET,
        help="service endpoint (Unix socket path or tcp://host:port)",
    )
    metrics.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=["text", "json"],
        help="human table (default) or canonical JSON",
    )
    _add_client_auth_arguments(metrics)

    worker = sub.add_parser(
        "worker",
        help="join a cluster coordinator as a compute node",
        parents=[common],
    )
    worker.set_defaults(handler=_cmd_worker)
    worker.add_argument(
        "--connect",
        required=True,
        metavar="ENDPOINT",
        help="coordinator endpoint (tcp://host:port, host:port, or a "
        "Unix socket path)",
    )
    worker.add_argument(
        "--name", default=None, help="requested worker name (uniquified)"
    )
    worker.add_argument(
        "--jobs", type=int, default=1, help="process-pool width per shard"
    )
    worker.add_argument(
        "--cache-dir",
        default=None,
        help="per-worker result cache (locally cached points are answered "
        "without recomputation)",
    )
    worker.add_argument(
        "--heartbeat",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="liveness ping interval (keep under the coordinator timeout)",
    )
    _add_backend_argument(worker)

    lint = sub.add_parser(
        "lint",
        help="run the determinism/layering/fidelity linter (repro.lint)",
        parents=[common],
    )
    lint.set_defaults(handler=_cmd_lint)
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt"
    )
    lint.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="report findings only for files changed vs REF (default "
        "HEAD) plus untracked files; the whole tree is still analysed, "
        "and the run falls back to full-tree when git is unavailable",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )

    return parser


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    """``--backend`` of ``sweep``, ``serve``, ``worker``, ``scenario run``,
    ``synth run`` and ``synth minimize``: accepted and ignored, because
    the benchmark under ``perf/`` still passes it."""
    parser.add_argument(
        "--backend",
        default=None,
        choices=BACKEND_NAMES,
        help="accepted for compatibility and has no effect: every loop "
        "runs through the one frontend simulator",
    )


def _add_client_auth_arguments(parser: argparse.ArgumentParser) -> None:
    """The service-client options shared by every verb that dials one."""
    parser.add_argument(
        "--token",
        default=None,
        help="client token for a service started with --auth "
        "(default: $REPRO_SERVICE_TOKEN)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-read timeout on the service connection (default: none)",
    )


def _client_auth(args) -> dict:
    """``token=``/``timeout_s=`` keyword arguments for the client helpers."""
    token = args.token if args.token is not None else os.environ.get(
        "REPRO_SERVICE_TOKEN"
    )
    return {"token": token, "timeout_s": args.timeout}


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The grid-description options shared by ``sweep`` and ``submit``;
    each defaults to None, leaving the default to :class:`SweepSpec`."""
    parser.add_argument("--machine")
    parser.add_argument("--channel", choices=list(CHANNEL_NAMES))
    parser.add_argument("--variant", choices=["stealthy", "fast"])
    parser.add_argument(
        "--param",
        action="append",
        required=True,
        metavar="NAME=V1,V2,...",
        help="grid axis over a ChannelConfig field, e.g. d=1,2,4,6,8 "
        "(repeat for multi-axis grids)",
    )
    parser.add_argument("--trials", type=int)
    parser.add_argument("--bits", type=int, help="message bits per point")


def _spec_from_flags(cls, args, **fields):
    """Spec dataclass ``cls`` from ``fields`` plus every field whose flag
    was given (``--seed`` is ``base_seed``); the rest keep its defaults."""
    for spec_field in dataclasses.fields(cls):
        name = spec_field.name
        value = getattr(args, "seed" if name == "base_seed" else name, None)
        if value is not None:
            fields.setdefault(name, value)
    return cls(**fields)


def _parse_grid(axes: Sequence[str]) -> dict:
    """``--param`` flags into a ``{name: values}`` grid."""
    return dict(parse_param_axis(axis) for axis in axes)


def _sweep_spec(args) -> SweepSpec:
    """The :class:`SweepSpec` ``sweep`` runs and ``submit`` sends."""
    return _spec_from_flags(SweepSpec, args, grid=_parse_grid(args.param))


def _sweep_heading(spec: SweepSpec) -> str:
    """The line above a sweep's table, locally run or submitted."""
    return (
        f"sweep over {', '.join(spec.grid)} — {spec.channel} on {spec.machine} "
        f"({spec.bits}-bit message, {spec.trials} trial(s)/point)"
    )


# ----------------------------------------------------------------------
# command implementations
# ----------------------------------------------------------------------
def _cmd_machines(_args) -> int:
    print(f"{'model':14s} {'uarch':13s} {'freq':>7s} {'LSD':>9s} {'SMT':>4s} {'SGX':>4s}")
    for spec in ALL_SPECS:
        lsd = str(LSD_CAPACITY) if spec.lsd_enabled else "disabled"
        print(
            f"{spec.name:14s} {spec.microarchitecture:13s} "
            f"{spec.frequency_ghz:>6.1f}G {lsd:>9s} "
            f"{'yes' if spec.smt else 'no':>4s} {'yes' if spec.sgx else 'no':>4s}"
        )
    return 0


def _cmd_transmit(args) -> int:
    machine = Machine(spec_by_name(args.machine), seed=args.seed)
    channel = build_channel(machine, args.channel, args.variant)
    if args.message:
        bits = string_to_bits(args.message)
    else:
        bits = random_bits(args.bits, machine.rngs.stream("cli-payload"))
    result = channel.transmit(bits)
    print(f"channel : {channel.name} on {machine.spec.name}")
    print(f"sent    : {result.sent_string}")
    print(f"received: {result.received_string}")
    print(f"rate    : {result.kbps:.2f} Kbps")
    print(f"error   : {result.error_rate * 100:.2f}% (Wagner-Fischer)")
    return 0


def _cmd_probe(args) -> int:
    machine = Machine(spec_by_name(args.machine), seed=args.seed)
    samples = path_timing_samples(machine, samples=args.samples)
    print(f"frontend path timings on {machine.spec.name} "
          f"(LSD {'on' if machine.lsd_enabled else 'off'}):")
    for path in (DeliveryPath.LSD, DeliveryPath.DSB, DeliveryPath.MITE):
        observations = sorted(samples[path])
        median = observations[len(observations) // 2]
        label = "MITE+DSB" if path is DeliveryPath.MITE else str(path)
        print(f"  {label:9s} median {median:8.1f} cycles "
              f"(min {observations[0]:.1f}, max {observations[-1]:.1f})")
    return 0


def _cmd_fingerprint(args) -> int:
    from repro.fingerprint import PATCH1, PATCH2, LsdFingerprint, apply_patch

    machine = Machine(spec_by_name(args.machine), seed=args.seed)
    if args.patch:
        apply_patch(machine, PATCH1 if args.patch == "patch1" else PATCH2)
    result = LsdFingerprint().detect(machine)
    reading = result.reading
    print(f"machine      : {machine.spec.name}")
    print(f"timing ratio : {reading.timing_ratio:.3f}")
    print(f"power ratio  : {reading.power_ratio:.3f}")
    print(f"verdict      : LSD {'ENABLED' if result.lsd_enabled else 'DISABLED'}")
    patch = result.matching_patch((PATCH1, PATCH2))
    print(f"microcode    : consistent with {patch}")
    if not patch.mitigated_cves:
        print(f"vulnerable to: {', '.join(PATCH2.mitigated_cves)}")
    return 0


def _cmd_spectre(args) -> int:
    from repro.spectre import ALL_SPECTRE_CHANNELS, SpectreV1Attack

    machine = Machine(spec_by_name(args.machine), seed=args.seed)
    channel_cls = {cls.name: cls for cls in ALL_SPECTRE_CHANNELS}[args.channel]
    channel = channel_cls(machine)
    report = SpectreV1Attack(machine, channel, args.secret.encode()).run()
    print(f"channel     : {channel.name}")
    print(f"secret      : {args.secret!r}")
    print(f"recovered   : {report.recovered.decode(errors='replace')!r}")
    print(f"accuracy    : {report.accuracy * 100:.1f}% of chunks")
    print(f"L1 miss rate: {report.l1_miss_rate * 100:.3f}%")
    return 0


def _cmd_sgx(args) -> int:
    from repro.sgx import SgxMtAttack, SgxNonMtAttack, SgxPowerAttack

    machine = Machine(spec_by_name(args.machine), seed=args.seed)
    if args.mode == "mt":
        attack = SgxMtAttack(machine, mechanism=args.mechanism)
    elif args.mode == "power":
        attack = SgxPowerAttack(machine, mechanism=args.mechanism)
    else:
        attack = SgxNonMtAttack(machine, mechanism=args.mechanism)
    result = attack.transmit(alternating_bits(args.bits))
    print(f"attack  : {attack.name} on {machine.spec.name}")
    print(f"rate    : {result.kbps:.2f} Kbps")
    print(f"error   : {result.error_rate * 100:.2f}%")
    return 0


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.lint import all_rules, run_lint
    from repro.lint.reporters import write_report

    if args.list_rules:
        for rule_cls in all_rules():
            print(
                f"{rule_cls.name:24s} [{rule_cls.family}] {rule_cls.description}"
            )
        return 0
    report = run_lint(
        Path.cwd(), paths=args.paths or None, changed_only=args.changed
    )
    write_report(report, args.fmt, sys.stdout)
    return report.exit_code()


def _check_jobs(args) -> None:
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")


def _executor(args, on_event=None):
    """Executor for ``--jobs``/``--workers``/``--bind`` (sweeps and synth
    campaigns, see :func:`repro.cluster.make_executor`); ``on_event``
    receives cluster shard/worker events."""
    _check_jobs(args)
    if args.workers < 0:
        raise ConfigurationError(f"--workers must be >= 0, got {args.workers}")
    from repro.cluster import make_executor

    return make_executor(
        args.jobs, args.workers, args.bind,
        shard_size=args.shard_size, on_event=on_event,
    )


def _cmd_sweep(args) -> int:
    from repro.exec import ResultCache
    from repro.reporting import format_execution_stats
    from repro.service.events import jsonl_progress

    spec = _sweep_spec(args)
    sweep = spec.build_sweep()
    # Shard/worker events share the progress stream (stderr JSONL).
    on_event = (
        (lambda event: print(event.to_json(), file=sys.stderr, flush=True))
        if args.progress
        else None
    )
    executor = _executor(args, on_event)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    # Progress events go to stderr in the service's JSONL format, so
    # stdout stays byte-identical with and without --progress.
    progress = jsonl_progress() if args.progress else None
    table = sweep.run(executor=executor, cache=cache, progress=progress)
    print(_sweep_heading(spec))
    print(table.render(precision=3))
    print(format_execution_stats(sweep.last_stats))
    if getattr(executor, "last_run", None) is not None:
        run = executor.last_run
        if run.get("fallback"):
            print("cluster: no workers registered; fell back to local execution",
                  file=sys.stderr)
        else:
            print(
                f"cluster: {run['workers']} worker(s), {run['shards']} shard(s), "
                f"{run['redispatches']} redispatch(es), {run['steals']} steal(s), "
                f"{run['duplicates']} duplicate(s) dropped",
                file=sys.stderr,
            )
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.exec import ResultCache, local_executor
    from repro.service import AuthPolicy, JobStore, SweepServer, SweepService

    _check_jobs(args)
    store = JobStore(args.state_dir) if args.state_dir else None
    auth = AuthPolicy.from_file(args.auth) if args.auth else None
    service = SweepService(
        executor=local_executor(args.jobs),
        batch_size=args.batch_size,
        workers=args.workers,
        job_ttl_s=args.job_ttl if args.job_ttl > 0 else None,
        store=store,
    )
    # The cache creates its directory, so only once the service has
    # accepted its flags: a refused ``serve`` leaves nothing behind.
    if not args.no_cache:
        service.scheduler.cache = ResultCache(args.cache_dir)
    server = SweepServer(service, args.socket, tcp=args.tcp, auth=auth)
    if store is not None:
        print(f"persisting jobs to {args.state_dir}", file=sys.stderr)
    print(f"sweep service listening on {args.socket}", file=sys.stderr)
    if args.tcp:
        print(f"sweep service also listening on tcp://{args.tcp} "
              "(no filesystem access control; see docs/distributed.md)",
              file=sys.stderr)
    try:
        asyncio.run(server.serve_forever())
    except KeyboardInterrupt:
        print("sweep service stopped", file=sys.stderr)
    return 0


def _cmd_submit(args) -> int:
    from repro.service.client import submit_and_stream

    spec = _sweep_spec(args)
    final = submit_and_stream(args.socket, spec, **_client_auth(args))
    return _render_job(final, _sweep_heading(spec))


def _render_job(final, heading: str) -> int:
    """Print a submitted job's final event: its table under ``heading``
    and the service summary, or the failure on stderr (exit code 1)."""
    from repro.sweep import render_rows

    if final.kind != "job-done":
        print(f"error: {final.get('message')}", file=sys.stderr)
        return 1
    status = final.get("status")
    if status != "ok":
        print(f"job {final.get('job')} finished with status: {status}",
              file=sys.stderr)
        return 1
    print(heading)
    print(
        render_rows(
            final.get("parameters", []),
            final.get("metrics", []),
            final.get("rows", []),
            precision=3,
        )
    )
    print(
        f"{final.get('points')} points via service — "
        f"cache hits {final.get('cache_hits')}, computed {final.get('computed')}, "
        f"shared {final.get('shared')}, {final.get('elapsed_s'):.2f}s"
    )
    return 0


def _cmd_watch(args) -> int:
    from repro.service.client import watch_and_stream

    kinds = args.kinds.split(",") if args.kinds else None
    try:
        seen = watch_and_stream(
            args.socket, kinds=kinds, limit=args.limit, **_client_auth(args)
        )
    except KeyboardInterrupt:
        return 0
    print(f"service stream ended after {seen} event(s)", file=sys.stderr)
    return 0


def _cmd_metrics(args) -> int:
    from repro.obs import render_text
    from repro.service.client import fetch_metrics

    snapshot = fetch_metrics(args.socket, **_client_auth(args))
    if args.fmt == "json":
        print(canonical_json(snapshot))
    else:
        print(render_text(snapshot))
    return 0


def _cmd_worker(args) -> int:
    from repro.cluster import run_worker

    _check_jobs(args)
    print(f"worker connecting to {args.connect}", file=sys.stderr)
    try:
        run_worker(
            args.connect,
            name=args.name,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            heartbeat_interval=args.heartbeat,
            # A CLI worker's process registry is its own; ship snapshots
            # so the coordinator's fleet merge sees this node's tallies.
            ship_metrics=True,
        )
    except KeyboardInterrupt:
        pass
    print("worker stopped", file=sys.stderr)
    return 0


def _cmd_defense(args) -> int:
    from repro.defense import ALL_MITIGATIONS, DefenseEvaluator

    evaluator = DefenseEvaluator(seed=args.seed, message_bits=args.bits)
    for report in evaluator.evaluate_all(ALL_MITIGATIONS):
        print(
            f"{report.mitigation_name:22s} slowdown x{report.benign_slowdown:4.2f} "
            f"energy x{report.benign_energy_ratio:4.2f} "
            f"set-leak {report.set_leak_accuracy * 100:3.0f}%"
        )
        for outcome in report.outcomes:
            print(
                f"    {outcome.channel_name:22s} {outcome.status:9s}"
                + (
                    f" {outcome.kbps:9.1f} Kbps, err {outcome.error_rate * 100:5.1f}%"
                    if outcome.status != "blocked"
                    else ""
                )
            )
    return 0


def _render_criteria(criteria) -> str:
    """``min_accuracy=0.9, min_kbps=100.0`` — only the set thresholds."""
    return ", ".join(
        f"{name}={value}"
        for name, value in criteria.to_dict().items()
        if value is not None
    )


def _cmd_scenario_list(_args) -> int:
    from repro import scenarios

    print(f"{'name':20s} {'kind':11s} {'machine':14s} {'trials':>6s}  title")
    for spec in scenarios.all_specs():
        print(
            f"{spec.name:20s} {spec.kind:11s} {spec.machine:14s} "
            f"{spec.trials:>6d}  {spec.title}"
        )
    return 0


def _cmd_scenario_describe(args) -> int:
    from repro import scenarios

    spec = scenarios.get(args.name)
    if args.json:
        print(spec.to_json())
        return 0
    print(f"name     : {spec.name}")
    print(f"kind     : {spec.kind}")
    print(f"title    : {spec.title}")
    print(f"machine  : {spec.machine}")
    print(f"trials   : {spec.trials} (base seed {spec.base_seed})")
    print(f"criteria : {_render_criteria(spec.criteria)}")
    for name in sorted(spec.params):
        print(f"param    : {name} = {spec.params[name]!r}")
    return 0


def _cmd_scenario_run(args) -> int:
    import json as _json

    from repro import scenarios
    from repro.obs import MetricsRegistry

    spec = scenarios.get(args.name)
    registry = MetricsRegistry()
    result = scenarios.run_scenario(
        spec, trials=args.trials, base_seed=args.seed, registry=registry
    )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            _json.dump(registry.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(_json.dumps(result.to_dict(), sort_keys=True))
        return 0 if result.passed else 1
    outcome = result.outcome
    print(f"scenario : {spec.name} ({spec.kind}) on {spec.machine}")
    print(f"trials   : {len(result.per_trial)}")
    print(
        f"outcome  : accuracy {outcome.accuracy * 100:.1f}%, "
        f"error {outcome.error_rate * 100:.2f}%, "
        f"{outcome.kbps:.1f} Kbps"
    )
    verdict = "PASS" if result.passed else "FAIL"
    print(f"criteria : {_render_criteria(spec.criteria)} -> {verdict}")
    for failure in result.failures:
        print(f"  failed : {failure}")
    return 0 if result.passed else 1


def _cmd_scenario_submit(args) -> int:
    """A scenario parameter grid through the running sweep service."""
    from repro import scenarios
    from repro.scenarios.sweep import ScenarioSweepSpec
    from repro.service.client import submit_and_stream

    spec = scenarios.get(args.name)
    sweep_spec = _spec_from_flags(
        ScenarioSweepSpec, args, scenario=spec.name, grid=_parse_grid(args.param)
    )
    final = submit_and_stream(args.socket, sweep_spec, **_client_auth(args))
    return _render_job(
        final,
        f"scenario grid over {', '.join(sweep_spec.grid)} — {spec.name} on "
        f"{spec.machine} ({sweep_spec.trials} trial(s)/point)",
    )


def _parse_defense_stacks(values) -> tuple[dict, ...]:
    """``--defense a+b`` flags into defense-config dicts, names checked."""
    from repro.defense import MITIGATIONS_BY_NAME

    stacks = []
    for value in values:
        names = [name for name in value.split("+") if name]
        if value in ("none", "baseline"):
            names = []
        unknown = sorted(set(names) - set(MITIGATIONS_BY_NAME))
        if unknown:
            raise ConfigurationError(
                f"unknown mitigation(s) {unknown}; choose from "
                f"{sorted(MITIGATIONS_BY_NAME)}"
            )
        stacks.append({"mitigations": names})
    return tuple(stacks)


def _render_synth_findings(report) -> None:
    """The human summary 'synth run' and 'synth report' print (timing-free:
    byte-stable)."""
    print(
        f"synth campaign on {report.config.machine} — seed "
        f"{report.config.seed}, {report.evaluated} candidate(s) over "
        f"{report.rounds} round(s), corpus {len(report.corpus)}, "
        f"{len(report.findings)} finding(s)"
    )
    for index, finding in enumerate(report.findings):
        undefended = finding.undefended
        print(f"finding {index}: {finding.fingerprint}")
        print(
            f"  undefended : {undefended['status']:9s} "
            f"{float(undefended['kbps']):9.1f} Kbps, "
            f"err {float(undefended['error_rate']) * 100:5.1f}%"
        )
        for label, metrics in finding.defenses.items():
            print(
                f"  {label:11s}: {metrics['status']:9s} "
                f"{float(metrics['kbps']):9.1f} Kbps, "
                f"err {float(metrics['error_rate']) * 100:5.1f}%"
            )
        print(
            f"  minimized  : {finding.minimized.total_blocks} block(s) x "
            f"{finding.minimized.iterations} iteration(s) "
            f"({finding.shrink_steps} shrink step(s))"
        )


def _read_text(path: str) -> str:
    """The whole of a UTF-8 input file; an unreadable one is a user error."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None


def _cmd_synth_report(args) -> int:
    from repro.synth import SearchReport

    _render_synth_findings(SearchReport.from_json(_read_text(args.input)))
    return 0


def _cmd_synth_minimize(args) -> int:
    from repro.synth import CandidateProgram, LeakageOracle, OracleConfig, shrink

    if args.candidate == "-":
        text = sys.stdin.read()
    else:
        text = _read_text(args.candidate)
    candidate = CandidateProgram.from_json(text)
    oracle = LeakageOracle(_spec_from_flags(OracleConfig, args))
    minimized, steps = shrink(candidate, oracle, args.seed, args.budget)
    print(minimized.to_json())
    print(
        f"minimize: cost {candidate.cost} -> {minimized.cost} in "
        f"{steps} oracle evaluation(s)",
        file=sys.stderr,
    )
    return 0


def _cmd_synth_run(args) -> int:
    from repro.exec import ResultCache
    from repro.reporting import format_execution_stats
    from repro.synth import SearchConfig, SynthSearch

    fields = {}
    if args.defense is not None:
        fields["defenses"] = _parse_defense_stacks(args.defense)
    config = _spec_from_flags(SearchConfig, args, **fields)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    search = SynthSearch(config)
    report = search.run(executor=_executor(args), cache=cache)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
    if args.scenarios_out:
        with open(args.scenarios_out, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(report.scenario_payloads()) + "\n")
    if args.json:
        print(report.to_json())
    else:
        _render_synth_findings(report)
    # Timing-dependent accounting stays off stdout so two equal-seed
    # runs produce byte-identical result streams.
    if search.last_stats is not None:
        print(format_execution_stats(search.last_stats), file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
