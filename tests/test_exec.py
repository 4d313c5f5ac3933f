"""Determinism suite for the execution layer (``repro.exec``).

The contract every scaling feature builds on: parallel execution and
result caching must be *invisible* — same table, same seeds, same bits —
and seed derivation is pinned to golden values so refactors cannot
silently shift every experiment.
"""

from __future__ import annotations

import functools
import json
import shutil

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    ExecutionStats,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    callable_fingerprint,
    canonical_point_key,
    canonical_value,
    local_executor,
    point_seed_name,
)
from repro.rng import derive_seed
from repro.sweep import ParameterSweep, SweepPoint, SweepResult, SweepTable


def quadratic(point: SweepPoint) -> dict:
    """Module-level factory: picklable for the process-pool executor."""
    x = point["x"]
    return {"y": float(x * x), "seed_mod": float(point.seed % 7)}


def awkward_floats(point: SweepPoint) -> dict:
    """Metrics with non-terminating binary expansions: the round-trip
    through the on-disk cache must still be bit-identical."""
    x = point["x"]
    return {"a": 0.1 + 0.2 * x, "b": x / 3.0, "c": 1e-300 * (x + 1)}


def make_sweep(trials: int = 2) -> ParameterSweep:
    return ParameterSweep(quadratic, {"x": [1, 2, 3]}, trials=trials, base_seed=7)


# ----------------------------------------------------------------------
# canonical encoding + seed derivation
# ----------------------------------------------------------------------
class TestCanonicalEncoding:
    def test_type_tags_distinguish_scalars(self):
        assert canonical_value(1) != canonical_value(1.0)
        assert canonical_value(1) != canonical_value(True)
        assert canonical_value(1) != canonical_value("1")
        assert canonical_value(0) != canonical_value(False)

    def test_numeric_equivalence_within_type(self):
        assert canonical_value(1.0) == canonical_value(1.0 + 0.0)
        # repr drift (e.g. 0.1 printing differently) cannot occur:
        # floats encode via hex.
        assert canonical_value(0.1) == ["float", (0.1).hex()]

    def test_mixed_types_on_one_axis_do_not_crash(self):
        # The old repr/sort scheme raised TypeError on int-vs-str axes.
        key_a = canonical_point_key({"x": 1, "mode": "fast"})
        key_b = canonical_point_key({"mode": "fast", "x": 1})
        assert key_a == key_b  # key order never matters

    def test_unorderable_grid_values_sweep_cleanly(self):
        table = ParameterSweep(
            quadratic, {"x": [1, 2], "mode": ["fast", None]}
        ).run()
        assert len(table.rows()) == 4

    def test_containers_encode_recursively(self):
        assert canonical_value([1, "a"]) == ["seq", [["int", 1], ["str", "a"]]]
        assert canonical_value((1, "a")) == canonical_value([1, "a"])
        assert canonical_value({1, 2}) == canonical_value({2, 1})

    def test_golden_point_key(self):
        assert (
            canonical_point_key({"x": 1, "z": "a"})
            == '{"x":["int",1],"z":["str","a"]}'
        )

    def test_golden_seeds(self):
        """Pinned seed values: a change here silently shifts every
        experiment in the repository.  Do not update casually."""
        assert derive_seed(0, point_seed_name({"d": 6}, 0)) == 1859919037931516298
        assert derive_seed(0, point_seed_name({"d": 6.0}, 0)) == 16883461249749157310
        assert derive_seed(0, point_seed_name({"d": True}, 0)) == 13923685620645232500
        points = make_sweep(trials=2).points()
        assert [p.seed for p in points[:4]] == [
            12318746435937831291,
            11626969504137549776,
            5706562028069310972,
            17730203699526921936,
        ]

    def test_fingerprint_distinguishes_functions(self):
        assert callable_fingerprint(quadratic) != callable_fingerprint(awkward_floats)
        assert callable_fingerprint(quadratic) == callable_fingerprint(quadratic)

    def test_fingerprint_partial_binds_arguments(self):
        base = functools.partial(quadratic)
        bound = functools.partial(quadratic, extra=1)
        assert callable_fingerprint(base) != callable_fingerprint(bound)


class TestCacheIdentityPins:
    """Pinned cache identities of the shipped sweep factories.

    ``callable_fingerprint`` hashes a factory's source text and bound
    arguments, so editing ``sweep_point_metrics`` /
    ``scenario_point_metrics`` / ``synth_point_metrics``, or changing the
    canonical JSON the synth oracle config is bound as, would orphan
    every on-disk ``ResultCache`` entry.  Likewise a genome's ``key()``
    names its evaluation seed.  Do not update casually.
    """

    def test_sweep_spec_factory(self):
        from repro.service.spec import SweepSpec

        factory = SweepSpec(grid={"d": [2, 4]}).build_sweep().factory
        assert callable_fingerprint(factory) == (
            "182d6238fc23d19981f041dcb681ee469372ab8c1df7a242c2ef1d548aa4d65a"
        )

    def test_scenario_sweep_spec_factory(self):
        from repro.scenarios.sweep import ScenarioSweepSpec

        spec = ScenarioSweepSpec(
            scenario="frontal", grid={"steps_per_branch": [3]}
        )
        assert callable_fingerprint(spec.build_sweep().factory) == (
            "1251c4aa6b52cadd9731f2d0f1aeceb9dad48de9266fc0b82caaa5b9c891c37e"
        )

    def test_synth_factory(self):
        from repro.synth.oracle import OracleConfig
        from repro.synth.search import synth_point_metrics

        oracle_json = OracleConfig().to_json()
        assert oracle_json == '{"bits":32,"machine":"Gold 6226","training_bits":12}'
        factory = functools.partial(synth_point_metrics, oracle_json)
        assert callable_fingerprint(factory) == (
            "08105098f5a9e884754e570d47ac4f6f42a04cf2c3c968a6c584f3d28c4bf3a4"
        )

    def test_synth_winner_key(self):
        from repro.synth import CandidateProgram

        # The seed-7, budget-16 campaign's first finding, as discovered
        # (before shrinking).
        winner = {
            "decoy_stride": 19,
            "encode": [
                {
                    "count": 4,
                    "dsb_set": 28,
                    "kind": "std",
                    "lcp_sets": 5,
                    "misaligned": False,
                }
            ],
            "iterations": 6,
            "probe": [
                {
                    "count": 7,
                    "dsb_set": 28,
                    "kind": "std",
                    "lcp_sets": 2,
                    "misaligned": False,
                }
            ],
        }
        assert CandidateProgram.from_dict(winner).key() == (
            '{"decoy_stride":19,"encode":[{"count":4,"dsb_set":28,'
            '"kind":"std","lcp_sets":5,"misaligned":false}],"iterations":6,'
            '"probe":[{"count":7,"dsb_set":28,"kind":"std","lcp_sets":2,'
            '"misaligned":false}]}'
        )


class TestCacheEntryPins:
    """The bytes of one result-cache entry, as written before entries
    were typed.  Entries outlive the code that wrote them, and metric
    order is part of the contract (tables list metrics in factory-return
    order, hit or miss), so the writer must not canonicalise."""

    POINT = SweepPoint(values={"d": 2, "x": 1.5, "n": "s"}, trial=1, seed=123)
    FINGERPRINT = "f" * 64
    METRICS = {
        "kbps": 1053.6379777955551, "status": "leak", "cycles": 7, "error": 0.0
    }
    KEY = "0b12f9d3348920ea8d3d1c3dea61f8b90ac46d8068bcd3360eda3a54e1f76490"
    ENTRY = (
        '{"version": 1, "key": "' + KEY + '", '
        '"values": {"d": "2", "x": "1.5", "n": "\'s\'"}, "trial": 1, '
        '"seed": 123, "metrics": {"kbps": 1053.6379777955551, '
        '"status": "leak", "cycles": 7, "error": 0.0}}'
    )

    def test_store_writes_the_pinned_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store(self.POINT, self.FINGERPRINT, self.METRICS)
        assert path == tmp_path / self.KEY[:2] / f"{self.KEY}.json"
        assert path.read_text() == self.ENTRY

    def test_load_returns_the_metrics_unchanged(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(self.POINT, self.FINGERPRINT, self.METRICS)
        metrics = cache.load(self.POINT, self.FINGERPRINT)
        assert metrics == self.METRICS
        assert list(metrics) == list(self.METRICS)
        assert type(metrics["cycles"]) is int
        assert metrics["kbps"].hex() == self.METRICS["kbps"].hex()

    @pytest.mark.parametrize(
        "field, value",
        [("trial", "1"), ("metrics", [7]), ("values", {"d": 2}),
         ("seed", None), ("version", 1.0)],
    )
    def test_wrong_typed_entry_is_evicted_as_corrupt(
        self, tmp_path, field, value
    ):
        cache = ResultCache(tmp_path)
        path = cache.store(self.POINT, self.FINGERPRINT, self.METRICS)
        entry = json.loads(path.read_text())
        entry[field] = value
        path.write_text(json.dumps(entry))

        assert cache.load(self.POINT, self.FINGERPRINT) is None
        assert cache.corrupt_evictions == 1
        assert not path.exists()

    def test_entry_in_another_points_slot_is_evicted_as_corrupt(self, tmp_path):
        """An entry copied into another point's slot decodes cleanly but
        names the wrong key: it must not be served as that point's."""
        cache = ResultCache(tmp_path)
        source = cache.store(self.POINT, self.FINGERPRINT, self.METRICS)
        other = SweepPoint(values={"d": 3, "x": 1.5, "n": "s"}, trial=1, seed=123)
        target = cache._path(cache.key(other, self.FINGERPRINT))
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, target)

        assert cache.load(other, self.FINGERPRINT) is None
        assert cache.corrupt_evictions == 1
        assert not target.exists()
        assert cache.load(self.POINT, self.FINGERPRINT) == self.METRICS


# ----------------------------------------------------------------------
# executor equivalence
# ----------------------------------------------------------------------
class TestExecutorDeterminism:
    def test_parallel_matches_serial(self):
        serial = make_sweep().run(SerialExecutor())
        parallel = make_sweep().run(ParallelExecutor(jobs=4))
        assert parallel == serial

    def test_parallel_preserves_point_order(self):
        table = make_sweep().run(ParallelExecutor(jobs=4))
        expected = [p.seed for p in make_sweep().points()]
        assert [r.point.seed for r in table.results] == expected

    def test_jobs_one_degenerates_to_serial(self):
        assert make_sweep().run(ParallelExecutor(jobs=1)) == make_sweep().run()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=0)

    def test_stats_populated(self):
        sweep = make_sweep()
        sweep.run(ParallelExecutor(jobs=2))
        stats = sweep.last_stats
        assert isinstance(stats, ExecutionStats)
        assert stats.points == 6
        assert stats.cache_hits == 0
        assert stats.computed_points == 6
        assert stats.points_per_second > 0
        assert len(stats.timings) == 6
        assert all(not t.cached for t in stats.timings)

    def test_progress_callback_sees_every_point(self):
        seen = []
        make_sweep().run(progress=lambda done, total, t: seen.append((done, total)))
        assert seen == [(i, 6) for i in range(1, 7)]


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
class TestLocalExecutor:
    def test_one_job_is_serial_more_is_a_pool(self):
        assert type(local_executor(1)) is SerialExecutor
        pool = local_executor(3)
        assert type(pool) is ParallelExecutor and pool.jobs == 3


class TestResultCache:
    def test_round_trip_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep = ParameterSweep(awkward_floats, {"x": [1, 2, 3]}, base_seed=3)
        cold = sweep.run(cache=cache)
        assert sweep.last_stats.cache_hits == 0
        warm_sweep = ParameterSweep(awkward_floats, {"x": [1, 2, 3]}, base_seed=3)
        warm = warm_sweep.run(cache=cache)
        assert warm_sweep.last_stats.cache_hits == 3
        assert warm == cold  # includes exact float equality
        for a, b in zip(cold.results, warm.results):
            for name in a.metrics:
                # bit-identical, not just approximately equal
                assert a.metrics[name].hex() == b.metrics[name].hex()

    def test_cache_respects_factory_identity(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ParameterSweep(quadratic, {"x": [1, 2]}).run(cache=cache)
        other = ParameterSweep(awkward_floats, {"x": [1, 2]})
        other.run(cache=cache)
        assert other.last_stats.cache_hits == 0

    def test_cache_distinguishes_trials_and_seeds(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ParameterSweep(quadratic, {"x": [1]}, trials=2).run(cache=cache)
        assert len(cache) == 2
        reseeded = ParameterSweep(quadratic, {"x": [1]}, trials=2, base_seed=99)
        reseeded.run(cache=cache)
        assert reseeded.last_stats.cache_hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep = ParameterSweep(quadratic, {"x": [1]})
        sweep.run(cache=cache)
        for entry in (tmp_path / "cache").glob("*/*.json"):
            entry.write_text("{not json")
        again = ParameterSweep(quadratic, {"x": [1]})
        again.run(cache=cache)
        assert again.last_stats.cache_hits == 0

    def test_corrupt_entries_evicted_and_counted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep = ParameterSweep(quadratic, {"x": [1, 2, 3]})
        sweep.run(cache=cache)
        # Damage all three entries three different ways: truncation
        # (killed writer), garbage bytes, and valid JSON of the wrong
        # shape.  Every flavour must read as a miss, not an exception.
        entries = sorted((tmp_path / "cache").glob("*/*.json"))
        assert len(entries) == 3
        entries[0].write_text(entries[0].read_text()[: len(entries[0].read_text()) // 2])
        entries[1].write_bytes(b"\x00\xff not json at all")
        entries[2].write_text('{"version": 1, "metrics": "oops"}')

        healed = ParameterSweep(quadratic, {"x": [1, 2, 3]})
        table = healed.run(cache=cache)
        # All three misses recomputed; the bad files were evicted and
        # the recompute healed the slots.
        assert healed.last_stats.cache_hits == 0
        assert healed.last_stats.cache_corrupt == 3
        assert cache.corrupt_evictions == 3
        assert table == ParameterSweep(quadratic, {"x": [1, 2, 3]}).run()
        assert len(cache) == 3

        # And the healed entries serve a fully warm rerun.
        warm = ParameterSweep(quadratic, {"x": [1, 2, 3]})
        warm.run(cache=cache)
        assert warm.last_stats.cache_hits == 3
        assert warm.last_stats.cache_corrupt == 0

    def test_corrupt_eviction_names_the_evicted_key(self, tmp_path):
        """The eviction is observable: a registry event says *which*
        (point, trial, seed, factory) slot was dropped, not just that
        one was."""
        from repro.obs import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as registry:
            cache = ResultCache(tmp_path / "cache")
            sweep = ParameterSweep(quadratic, {"x": [1]})
            sweep.run(cache=cache)
            [entry] = (tmp_path / "cache").glob("*/*.json")
            entry.write_text("{broken")
            ParameterSweep(quadratic, {"x": [1]}).run(cache=cache)

            evictions = [
                e for e in registry.events if e.name == "cache.corrupt-evicted"
            ]
            assert len(evictions) == 1
            [point] = sweep.points()
            expected_key = cache.key(point, callable_fingerprint(quadratic))
            assert evictions[0].fields["key"] == expected_key
            assert evictions[0].fields["path"] == str(entry)
            assert registry.counter("cache.corrupt_evictions").value == 1

    def test_stats_corrupt_count_is_per_run(self, tmp_path):
        """ExecutionStats reports this run's evictions, not the cache's
        lifetime total."""
        cache = ResultCache(tmp_path / "cache")
        ParameterSweep(quadratic, {"x": [1]}).run(cache=cache)
        for entry in (tmp_path / "cache").glob("*/*.json"):
            entry.write_text("{broken")
        first = ParameterSweep(quadratic, {"x": [1]})
        first.run(cache=cache)
        assert first.last_stats.cache_corrupt == 1
        second = ParameterSweep(quadratic, {"x": [1]})
        second.run(cache=cache)
        assert second.last_stats.cache_corrupt == 0
        assert cache.corrupt_evictions == 1

    def test_parallel_with_cache_matches_serial(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        serial = make_sweep().run(SerialExecutor())
        half = make_sweep()
        half.run(ParallelExecutor(jobs=2), cache=cache)
        warm = make_sweep()
        table = warm.run(ParallelExecutor(jobs=2), cache=cache)
        assert table == serial
        assert warm.last_stats.cache_hit_rate == 1.0

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        make_sweep().run(cache=cache)
        assert len(cache) == 6
        assert cache.clear() == 6
        assert len(cache) == 0

    def test_cache_path_must_be_directory(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(ConfigurationError):
            ResultCache(blocker)


# ----------------------------------------------------------------------
# table aggregation semantics under the new layer
# ----------------------------------------------------------------------
class TestSweepTableGridOrder:
    def _table(self) -> SweepTable:
        return SweepTable(
            parameter_names=("x",),
            metric_names=("y",),
            grid={"x": (3, 1, 2)},
        )

    def _result(self, x: int) -> SweepResult:
        point = SweepPoint(values={"x": x}, trial=0, seed=x)
        return SweepResult(point=point, metrics={"y": float(x * x)})

    def test_rows_follow_grid_order_not_append_order(self):
        table = self._table()
        for x in (2, 3, 1):  # appended out of grid order
            table.append(self._result(x))
        assert [row["x"] for row in table.rows()] == [3, 1, 2]
        assert table.column("y") == [9.0, 1.0, 4.0]

    def test_append_invalidates_cached_rows(self):
        table = self._table()
        table.append(self._result(3))
        assert [row["x"] for row in table.rows()] == [3]
        table.append(self._result(1))
        assert [row["x"] for row in table.rows()] == [3, 1]

    def test_rows_returns_copies(self):
        table = self._table()
        table.append(self._result(3))
        table.rows()[0]["y_mean"] = -1.0
        assert table.rows()[0]["y_mean"] == 9.0

    def test_off_grid_coordinates_keep_appearance_order(self):
        table = self._table()
        table.append(self._result(9))  # not on the declared axis
        table.append(self._result(1))
        assert [row["x"] for row in table.rows()] == [1, 9]
