"""Coverage-guided mutational search over candidate attack programs.

:class:`SynthSearch` drives the generator → oracle loop:

1. each **round** assembles a batch of candidates — fresh grammar draws
   plus mutations of corpus members once a corpus exists;
2. the batch is scored against the **undefended** machine through the
   standard :class:`~repro.exec.base.Executor` contract, so ``--jobs``
   process pools, the distributed cluster fabric, and the on-disk
   :class:`~repro.exec.cache.ResultCache` all apply (candidate dicts are
   ordinary grid values; point seeds derive from the genome's canonical
   JSON, so resumed searches hit the same cache entries);
3. candidates whose frontend-path fingerprint is new join the
   **corpus** (coverage novelty, not score: a broken-but-novel path is
   tomorrow's parent);
4. candidates whose channel is ``intact`` become **findings**: they are
   shrunk to their smallest still-leaking form, re-scored against every
   configured defense stack, and exported as scenario-spec payloads.

Everything is a pure function of the :class:`SearchConfig`: same seed +
config ⇒ byte-identical corpus, findings, and report, on any executor.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.errors import ConfigurationError
from repro.exec.base import ExecutionStats, Executor
from repro.exec.cache import ResultCache
from repro.exec.serial import SerialExecutor
from repro.obs import get_registry
from repro.rng import RngFactory, derive_seed
from repro.sweep import SweepPoint
from repro.synth.candidate import CandidateProgram, Segment
from repro.synth.generator import GeneratorConfig, ProgramGenerator
from repro.synth.oracle import LeakageOracle, OracleConfig
from repro.wire import Wire

__all__ = [
    "SearchConfig",
    "Finding",
    "SearchReport",
    "SynthSearch",
    "synth_point_metrics",
    "shrink",
]

#: Error-rate criterion exported scenario specs assert — the oracle's
#: ``intact`` threshold (see ``repro.defense.evaluation.DEGRADED_ERROR``).
_EXPORT_MAX_ERROR = 0.20


@dataclass(frozen=True)
class SearchConfig(Wire):
    """One search campaign, as data (JSON-round-trippable)."""

    seed: int = 0
    budget: int = 64
    batch_size: int = 8
    machine: str = "Gold 6226"
    bits: int = 32
    training_bits: int = 12
    #: Fraction of each batch drawn by mutating corpus members (once a
    #: corpus exists); the rest are fresh grammar draws.
    mutation_rate: float = 0.5
    #: Stop once this many distinct-fingerprint findings are minimised.
    max_findings: int = 4
    #: Oracle evaluations the shrinking pass may spend per finding.
    shrink_budget: int = 96
    #: Defense stacks every finding is re-scored against (JSON form).
    defenses: tuple[Mapping[str, object], ...] = (
        {"mitigations": ["uniform-path-timing"]},
    )
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "defenses", tuple(dict(d) for d in self.defenses)
        )
        if self.budget < 1:
            raise ConfigurationError(f"budget must be >= 1, got {self.budget}")
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigurationError("mutation_rate must be a probability")
        if self.max_findings < 1:
            raise ConfigurationError(
                f"max_findings must be >= 1, got {self.max_findings}"
            )
        if self.shrink_budget < 0:
            raise ConfigurationError(
                f"shrink_budget must be >= 0, got {self.shrink_budget}"
            )
        if not isinstance(self.generator, GeneratorConfig):
            raise ConfigurationError(
                "generator must be a GeneratorConfig instance"
            )

    # ------------------------------------------------------------------
    def oracle_config(self) -> OracleConfig:
        return OracleConfig(
            machine=self.machine,
            bits=self.bits,
            training_bits=self.training_bits,
        )


# ----------------------------------------------------------------------
# the picklable sweep-point factory (module-level: worker processes and
# the cluster fabric pickle partials over it; the oracle config rides as
# a canonical JSON string so cache fingerprints are stable)
# ----------------------------------------------------------------------
def synth_point_metrics(oracle_json: str, point: SweepPoint) -> dict:
    """Score one candidate point against the undefended machine."""
    oracle = LeakageOracle(OracleConfig.from_json(oracle_json))
    candidate = CandidateProgram.from_dict(point.values["candidate"])  # type: ignore[arg-type]
    return oracle.score(candidate, seed=point.seed).metrics()


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def _shrink_variants(candidate: CandidateProgram) -> Iterator[CandidateProgram]:
    """Strictly-smaller neighbours, in a fixed exploration order."""
    if candidate.iterations > 1:
        yield dataclasses.replace(
            candidate, iterations=max(1, candidate.iterations // 2)
        )
        yield dataclasses.replace(
            candidate, iterations=candidate.iterations - 1
        )
    if len(candidate.encode) > 1:
        for index in range(len(candidate.encode)):
            encode = candidate.encode[:index] + candidate.encode[index + 1:]
            yield dataclasses.replace(candidate, encode=encode)
    if len(candidate.probe) > 1:
        for index in range(len(candidate.probe)):
            probe = candidate.probe[:index] + candidate.probe[index + 1:]
            yield dataclasses.replace(candidate, probe=probe)
    for role in ("probe", "encode"):
        segments: tuple[Segment, ...] = getattr(candidate, role)
        for index, segment in enumerate(segments):
            for count in (segment.count // 2, segment.count - 1):
                if count < 1 or count == segment.count:
                    continue
                replaced = segments[:index] + (
                    dataclasses.replace(segment, count=count),
                ) + segments[index + 1:]
                yield dataclasses.replace(candidate, **{role: replaced})


def shrink(
    candidate: CandidateProgram,
    oracle: LeakageOracle,
    root_seed: int,
    budget: int,
) -> tuple[CandidateProgram, int]:
    """Greedily minimise a winning candidate to a smaller leaking form.

    Each accepted step strictly reduces :attr:`CandidateProgram.cost`
    while the candidate keeps scoring ``intact`` against the undefended
    machine; returns the minimised genome and the oracle evaluations
    spent.  Variant seeds use the same ``synth/eval/<genome>`` naming as
    the search proper, so shrink results agree with (and are served by)
    any prior cached evaluation of the same genome.
    """
    current = candidate
    steps = 0
    improved = True
    while improved and steps < budget:
        improved = False
        for variant in _shrink_variants(current):
            if steps >= budget:
                break
            steps += 1
            seed = derive_seed(root_seed, f"synth/eval/{variant.key()}")
            if oracle.score(variant, seed).leaks:
                current = variant
                improved = True
                break
    return current, steps


# ----------------------------------------------------------------------
# findings + report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Finding(Wire):
    """One discovery: the genome, its minimal form, and the defense map."""

    candidate: CandidateProgram
    minimized: CandidateProgram
    fingerprint: str
    shrink_steps: int
    undefended: Mapping[str, object]
    #: Stack name -> verdict metrics of the *minimised* candidate.
    defenses: Mapping[str, Mapping[str, object]]

    def scenario_payload(
        self, name: str, machine: str, bits: int, base_seed: int
    ) -> dict:
        """A ``ScenarioSpec.from_dict``-ready dict for this discovery.

        Pure data — ``repro.scenarios`` sits above this layer and does
        the registering; the payload is what makes a synthesised find a
        permanent regression scenario.
        """
        return {
            "name": name,
            "kind": "synth",
            "title": f"Synthesised frontend leak ({self.fingerprint})",
            "machine": machine,
            "criteria": {"max_error_rate": _EXPORT_MAX_ERROR},
            "trials": 3,
            "base_seed": base_seed,
            "params": {
                "candidate": self.minimized.to_dict(),
                "bits": bits,
            },
        }


@dataclass(frozen=True)
class SearchReport(Wire):
    """Everything one campaign produced; its canonical ``to_json`` is the
    determinism contract's comparison unit."""

    config: SearchConfig
    evaluated: int
    rounds: int
    fingerprints: tuple[str, ...]
    corpus: tuple[CandidateProgram, ...]
    findings: tuple[Finding, ...]

    def scenario_payloads(self, prefix: str = "synth-find") -> list[dict]:
        """Scenario-spec payloads for every finding, deterministically named."""
        return [
            finding.scenario_payload(
                name=f"{prefix}-{index}",
                machine=self.config.machine,
                bits=self.config.bits,
                base_seed=self.config.seed,
            )
            for index, finding in enumerate(self.findings)
        ]


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
class SynthSearch:
    """Seeded random + coverage-guided mutational search (see module doc)."""

    def __init__(self, config: SearchConfig | None = None) -> None:
        self.config = config or SearchConfig()
        #: Executor stats of the most recent :meth:`run`, summed over its
        #: rounds (None before the first).
        self.last_stats: ExecutionStats | None = None

    def run(
        self,
        executor: Executor | None = None,
        cache: ResultCache | None = None,
    ) -> SearchReport:
        cfg = self.config
        registry = get_registry()
        executor = executor or SerialExecutor()
        oracle_cfg = cfg.oracle_config()
        oracle = LeakageOracle(oracle_cfg)
        factory = functools.partial(synth_point_metrics, oracle_cfg.to_json())
        generator = ProgramGenerator(cfg.seed, cfg.generator)
        pick = RngFactory(cfg.seed).stream("synth/search/pick")

        corpus: list[CandidateProgram] = []
        fingerprints: dict[str, int] = {}  # fingerprint -> first index
        found: dict[str, Finding] = {}  # fingerprint -> finding
        stats: ExecutionStats | None = None
        evaluated = 0
        index = 0
        rounds = 0

        while evaluated < cfg.budget and len(found) < cfg.max_findings:
            want = min(cfg.batch_size, cfg.budget - evaluated)
            with registry.span("synth.round", round=str(rounds)):
                batch: list[CandidateProgram] = []
                for _ in range(want):
                    mutate = corpus and pick.random() < cfg.mutation_rate
                    if mutate:
                        a = corpus[int(pick.integers(len(corpus)))]
                        b = corpus[int(pick.integers(len(corpus)))]
                        batch.append(generator.mutate(a, b, index))
                        registry.counter("synth.mutations").inc()
                    else:
                        batch.append(generator.generate(index))
                    index += 1
                points = [
                    SweepPoint(
                        values={"candidate": candidate.to_dict()},
                        trial=0,
                        seed=derive_seed(
                            cfg.seed, f"synth/eval/{candidate.key()}"
                        ),
                    )
                    for candidate in batch
                ]
                results, round_stats = executor.run(
                    points, factory, cache=cache
                )
                stats = round_stats if stats is None else self._merge(
                    stats, round_stats
                )
                evaluated += len(batch)
                registry.counter("synth.candidates").inc(len(batch))

                for candidate, result in zip(batch, results):
                    metrics = result.metrics
                    fingerprint = str(metrics["fingerprint"])
                    if fingerprint not in fingerprints:
                        fingerprints[fingerprint] = len(fingerprints)
                        corpus.append(candidate)
                        registry.counter("synth.novel").inc()
                    if (
                        metrics["status"] == "intact"
                        and fingerprint not in found
                        and len(found) < cfg.max_findings
                    ):
                        found[fingerprint] = self._finish_finding(
                            candidate, fingerprint, metrics, oracle
                        )
                        registry.counter("synth.finds").inc()
            registry.gauge("synth.corpus").set(float(len(corpus)))
            rounds += 1

        self.last_stats = stats
        return SearchReport(
            config=cfg,
            evaluated=evaluated,
            rounds=rounds,
            fingerprints=tuple(fingerprints),
            corpus=tuple(corpus),
            findings=tuple(found.values()),
        )

    # ------------------------------------------------------------------
    def _finish_finding(
        self,
        candidate: CandidateProgram,
        fingerprint: str,
        metrics: Mapping[str, object],
        oracle: LeakageOracle,
    ) -> Finding:
        """Shrink a winner, then re-score its minimal form per defense."""
        cfg = self.config
        registry = get_registry()
        with registry.span("synth.shrink", fingerprint=fingerprint):
            minimized, steps = shrink(
                candidate, oracle, cfg.seed, cfg.shrink_budget
            )
        registry.counter("synth.shrink_steps").inc(steps)
        defenses: dict[str, Mapping[str, object]] = {}
        for defense in cfg.defenses:
            label = "+".join(
                str(name) for name in defense.get("mitigations", [])
            ) or "baseline"
            seed = derive_seed(
                cfg.seed, f"synth/defense/{label}/{minimized.key()}"
            )
            defenses[label] = oracle.score(
                minimized, seed, defense=defense
            ).metrics()
        return Finding(
            candidate=candidate,
            minimized=minimized,
            fingerprint=fingerprint,
            shrink_steps=steps,
            undefended=dict(metrics),
            defenses=defenses,
        )

    @staticmethod
    def _merge(total: ExecutionStats, round_stats: ExecutionStats) -> ExecutionStats:
        """Accumulate per-round executor stats into one campaign view."""
        total.points += round_stats.points
        total.cache_hits += round_stats.cache_hits
        total.elapsed_s += round_stats.elapsed_s
        total.cache_corrupt += round_stats.cache_corrupt
        total.timings.extend(round_stats.timings)
        return total
