"""Solve cache: content keys, atomic commits, corruption quarantine."""

import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.runtime.cache import (
    ENTRY_SCHEMA, CacheStats, LockTimeout, SolveCache, as_cache,
    cache_key, canonical, canonical_blob, experiment_point_key,
    process_start_time, _lock_is_stale,
)
from repro.runtime.experiment import (
    ExperimentPoint, ExperimentSpec, run_experiment,
)
from repro.runtime.faults import FaultPlan, FaultSpec, inject


def square(x):
    """Module-level measurement (picklable for worker pools)."""
    return x * x


_TRACKED_CALLS = []


def tracked_square(x):
    _TRACKED_CALLS.append(x)
    return x * x


def _spec(measure=square, n=4, **overrides):
    points = [ExperimentPoint(i, float(i)) for i in range(n)]
    options = {"name": "cache-unit", "measure": measure, "points": points,
               "codec": "json"}
    options.update(overrides)
    return ExperimentSpec(**options)


@dataclass
class Knob:
    width: float
    length: float


class TestCanonical:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert canonical(value) == value

    def test_tuples_and_lists_merge(self):
        assert canonical((1, 2)) == canonical([1, 2]) == [1, 2]

    def test_dict_key_order_is_irrelevant(self):
        assert canonical_blob({"a": 1, "b": 2}) \
            == canonical_blob({"b": 2, "a": 1})

    def test_dataclass_is_type_tagged(self):
        blob = canonical(Knob(width=1.0, length=2.0))
        assert blob["__dataclass__"].endswith("Knob")
        assert blob["fields"] == {"width": 1.0, "length": 2.0}

    def test_numpy_scalars_and_arrays(self):
        assert canonical(np.float64(0.5)) == 0.5
        blob = canonical(np.arange(4.0).reshape(2, 2))
        assert blob["__ndarray__"] == [2, 2]
        assert blob["values"] == [0.0, 1.0, 2.0, 3.0]

    def test_unknown_types_fall_back_to_tagged_repr(self):
        blob = canonical(complex(1, 2))
        assert blob["__repr__"].endswith("complex")

    def test_float_blob_is_repr_shortest(self):
        assert canonical_blob(0.1) == "0.1"


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key(a=1, b="x") == cache_key(a=1, b="x")

    def test_sensitive_to_any_component(self):
        base = cache_key(a=1, b="x")
        assert cache_key(a=2, b="x") != base
        assert cache_key(a=1, b="y") != base
        assert cache_key(a=1, b="x", c=0) != base

    def test_point_key_ignores_execution_knobs(self):
        serial = _spec(workers=1)
        pooled = _spec(workers=4)
        key = experiment_point_key(serial, 1.0)
        assert experiment_point_key(pooled, 1.0) == key

    def test_point_key_tracks_payload_inputs(self):
        spec = _spec()
        key = experiment_point_key(spec, 1.0)
        assert experiment_point_key(spec, 2.0) != key
        other_codec = _spec(codec="none")
        assert experiment_point_key(other_codec, 1.0) != key


class TestGetPut:
    def test_round_trip(self, tmp_path):
        cache = SolveCache(tmp_path)
        key = cache_key(x=1)
        assert cache.get(key) == (False, None)
        assert cache.put(key, {"delay": 1.25e-9})
        assert cache.get(key) == (True, {"delay": 1.25e-9})
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_entry_is_sharded_and_checksummed(self, tmp_path):
        cache = SolveCache(tmp_path)
        key = cache_key(x=2)
        cache.put(key, [1.0, 2.0])
        path = cache.entry_path(key)
        assert path.parent.name == key[:2]
        entry = json.loads(path.read_text())
        assert entry["schema"] == ENTRY_SCHEMA
        assert entry["key"] == key
        assert entry["checksum"]

    def test_read_only_never_writes(self, tmp_path):
        writer = SolveCache(tmp_path)
        key = cache_key(x=3)
        writer.put(key, 9.0)
        reader = SolveCache(tmp_path, read_only=True)
        assert reader.get(key) == (True, 9.0)
        assert not reader.put(cache_key(x=4), 16.0)
        assert reader.entry_count() == 1

    def test_as_cache_coercion(self, tmp_path):
        assert as_cache(None) is None
        cache = SolveCache(tmp_path)
        assert as_cache(cache) is cache
        assert isinstance(as_cache(str(tmp_path)), SolveCache)


def _tamper_value(cache, key) -> None:
    """Modify an entry's payload while keeping it valid JSON.

    Leaves the stored checksum untouched, so only checksum
    verification — not JSON parsing — can catch the tampering.
    """
    path = cache.entry_path(key)
    entry = json.loads(path.read_text())
    entry["value"] = entry["value"] + 1.0
    path.write_text(json.dumps(entry, sort_keys=True))


class TestCorruption:
    def test_corrupt_entry_is_quarantined_not_served(self, tmp_path):
        cache = SolveCache(tmp_path)
        key = cache_key(x=5)
        cache.put(key, 25.0)
        _tamper_value(cache, key)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            hit, payload = cache.get(key)
        assert not hit and payload is None
        assert cache.stats.corruptions == 1
        assert not cache.entry_path(key).exists()
        assert (tmp_path / "quarantine" / f"{key}.json").is_file()

    def test_recompute_heals_the_entry(self, tmp_path):
        cache = SolveCache(tmp_path)
        key = cache_key(x=6)
        cache.put(key, 36.0)
        _tamper_value(cache, key)
        with pytest.warns(RuntimeWarning):
            cache.get(key)
        assert cache.put(key, 36.0)
        assert cache.get(key) == (True, 36.0)

    def test_unparseable_entry_is_corrupt(self, tmp_path):
        cache = SolveCache(tmp_path)
        key = cache_key(x=7)
        cache.put(key, 49.0)
        cache.entry_path(key).write_text('{"schema": "repro-cache')
        with pytest.warns(RuntimeWarning):
            assert cache.get(key) == (False, None)

    def test_wrong_key_entry_is_corrupt(self, tmp_path):
        """An entry copied/renamed to the wrong key must not alias."""
        cache = SolveCache(tmp_path)
        source, target = cache_key(x=8), cache_key(x=9)
        cache.put(source, 64.0)
        cache.entry_path(target).parent.mkdir(parents=True, exist_ok=True)
        cache.entry_path(target).write_text(
            cache.entry_path(source).read_text())
        with pytest.warns(RuntimeWarning):
            assert cache.get(target) == (False, None)
        assert cache.get(source) == (True, 64.0)

    def test_negative_control_without_checksums(self, tmp_path):
        """Disabling verification serves the tampered payload.

        The chaos harness's negative control: this proves the checksum
        is load-bearing — were it not verified, campaigns would consume
        corrupt results silently.
        """
        cache = SolveCache(tmp_path, verify_checksums=False)
        key = cache_key(x=10)
        cache.put(key, 100.0)
        _tamper_value(cache, key)
        hit, payload = cache.get(key)
        assert hit and payload == 101.0  # corruption served undetected


class TestTornWrite:
    def test_injected_torn_write_leaves_no_visible_entry(self, tmp_path):
        cache = SolveCache(tmp_path)
        key = cache_key(x=11)
        with inject(FaultPlan([FaultSpec("cache_torn_write")])):
            assert not cache.put(key, 121.0)
        assert cache.get(key) == (False, None)
        report = cache.verify()
        assert report["entries"] == 0
        assert report["stray_tmp"] == 1
        # The sweep removed the stray temp file.
        assert cache.verify()["stray_tmp"] == 0

    def test_injected_corruption_detected_on_read(self, tmp_path):
        cache = SolveCache(tmp_path)
        key = cache_key(x=12)
        with inject(FaultPlan([FaultSpec("cache_corrupt")])):
            cache.put(key, 144.0)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(key) == (False, None)


class TestDegradedMode:
    def test_write_failure_degrades_not_raises(self, tmp_path):
        blocker = tmp_path / "cache-root"
        blocker.write_text("a file where the cache root should be")
        cache = SolveCache(blocker)
        with pytest.warns(RuntimeWarning, match="degraded"):
            assert not cache.put(cache_key(x=13), 1.0)
        assert cache.degraded
        assert cache.get(cache_key(x=13)) == (False, None)
        assert cache.stats.errors == 1

    def test_degraded_cache_bypasses_lookups(self, tmp_path):
        cache = SolveCache(tmp_path)
        key = cache_key(x=14)
        cache.put(key, 196.0)
        cache.degraded = True
        assert cache.get(key) == (False, None)
        assert not cache.put(cache_key(x=15), 1.0)


class TestLocking:
    def test_unparseable_lock_is_stale(self, tmp_path):
        lock = tmp_path / ".lock"
        lock.write_text("not json")
        assert _lock_is_stale(lock)

    def test_dead_pid_lock_is_stale(self, tmp_path):
        lock = tmp_path / ".lock"
        # Find a vacant pid (sequentially near the max makes it cheap).
        pid = 2 ** 22 - 7
        while os.path.exists(f"/proc/{pid}"):  # pragma: no cover
            pid -= 1
        lock.write_text(json.dumps({"pid": pid}))
        assert _lock_is_stale(lock)

    def test_live_pid_with_matching_start_time_is_held(self, tmp_path):
        lock = tmp_path / ".lock"
        lock.write_text(json.dumps({
            "pid": os.getpid(),
            "start_time": process_start_time(os.getpid())}))
        assert not _lock_is_stale(lock)

    def test_pid_reuse_detected_via_start_time(self, tmp_path):
        lock = tmp_path / ".lock"
        lock.write_text(json.dumps({"pid": os.getpid(),
                                    "start_time": -1}))
        assert _lock_is_stale(lock)

    def test_stale_lock_fault_is_reclaimed(self, tmp_path):
        cache = SolveCache(tmp_path)
        key = cache_key(x=16)
        with inject(FaultPlan([FaultSpec("stale_lock")])):
            assert cache.put(key, 256.0)
        assert cache.get(key) == (True, 256.0)
        assert not cache.lock_path.exists()

    def test_live_lock_times_out_into_degraded_mode(self, tmp_path):
        cache = SolveCache(tmp_path, lock_timeout_s=0.05,
                          lock_poll_s=0.01)
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.lock_path.write_text(json.dumps({
            "pid": os.getpid(),
            "start_time": process_start_time(os.getpid())}))
        with pytest.warns(RuntimeWarning, match="degraded"):
            assert not cache.put(cache_key(x=17), 1.0)
        assert cache.degraded

    def test_lock_timeout_is_an_analysis_error(self):
        from repro.errors import AnalysisError
        assert issubclass(LockTimeout, AnalysisError)


class TestMaintenance:
    def test_verify_counts_and_clear(self, tmp_path):
        cache = SolveCache(tmp_path)
        for n in range(3):
            cache.put(cache_key(x=100 + n), float(n))
        _tamper_value(cache, cache_key(x=100))
        with pytest.warns(RuntimeWarning):
            report = cache.verify()
        assert report["entries"] == 3
        assert report["ok"] == 2
        assert report["corrupt"] == 1
        assert report["quarantined_total"] == 1
        assert cache.entry_count() == 2
        assert cache.total_bytes() > 0
        assert cache.clear() == 2
        assert cache.entry_count() == 0

    def test_stats_to_json(self):
        stats = CacheStats(hits=3, misses=1)
        blob = stats.to_json()
        assert blob["hits"] == 3 and blob["misses"] == 1


class TestEngineIntegration:
    def test_cold_run_populates_warm_run_hits(self, tmp_path):
        cache = SolveCache(tmp_path)
        cold = run_experiment(_spec(), cache=cache)
        assert cache.stats.stores == 4
        warm = run_experiment(_spec(), cache=cache)
        assert cache.stats.hits == 4
        assert warm.values() == cold.values()

    def test_warm_run_does_not_measure(self, tmp_path):
        cache = SolveCache(tmp_path)
        _TRACKED_CALLS.clear()
        run_experiment(_spec(measure=tracked_square), cache=cache)
        assert len(_TRACKED_CALLS) == 4
        _TRACKED_CALLS.clear()
        run_experiment(_spec(measure=tracked_square), cache=cache)
        assert _TRACKED_CALLS == []

    def test_cache_accepts_plain_path(self, tmp_path):
        cold = run_experiment(_spec(), cache=tmp_path / "c")
        warm_cache = SolveCache(tmp_path / "c")
        warm = run_experiment(_spec(), cache=warm_cache)
        assert warm_cache.stats.hits == 4
        assert warm.values() == cold.values()

    def test_quarantined_points_are_not_cached(self, tmp_path):
        def sometimes(x):
            raise ValueError("no")

        cache = SolveCache(tmp_path)
        spec = _spec()
        spec.measure = sometimes
        run_experiment(spec, cache=cache)
        assert cache.stats.stores == 0

    def test_fault_campaigns_bypass_the_cache(self, tmp_path):
        cache = SolveCache(tmp_path)
        run_experiment(_spec(), cache=cache)  # populate
        plan = FaultPlan.fail_samples([1])
        faulted = run_experiment(_spec(faults=plan), cache=cache)
        # The faulted campaign must re-measure (plans count firings),
        # so the injected failure actually lands instead of being
        # masked by a cache hit.
        assert cache.stats.hits == 0
        assert [row.index for row in faulted.rows if not row.ok] == [1]

    def test_hit_values_are_bitwise_identical(self, tmp_path):
        cache = SolveCache(tmp_path)
        cold = run_experiment(_spec(measure=square, n=6), cache=cache)
        warm = run_experiment(_spec(measure=square, n=6), cache=cache)
        for a, b in zip(cold.values(), warm.values()):
            assert a == b and type(a) is type(b)

    def test_execution_knobs_are_excluded_from_point_keys(self):
        # backend / workers / batch_width / solver choose *how* a point
        # is computed, never *what*; two specs differing only in those
        # knobs must key every point identically.
        base = _spec(n=3)
        tuned = _spec(n=3, backend="batched", batch_measure=square,
                      workers=4, batch_width=64, solver="sparse")
        for point in base.points:
            assert experiment_point_key(base, point.params) \
                == experiment_point_key(tuned, point.params)

    def test_sharded_sparse_warm_run_hits_serial_dense_entries(
            self, tmp_path):
        # End to end: a cold serial dense campaign populates the cache;
        # re-running the same campaign sharded-batched with the sparse
        # kernel must hit every entry and return bitwise the same
        # metrics — execution knobs are invisible to the cache.
        from repro.analysis.montecarlo import (
            MonteCarloConfig, monte_carlo_spec,
        )
        cache = SolveCache(tmp_path)
        cold_cfg = MonteCarloConfig(runs=4, backend="serial",
                                    solver="dense")
        cold = run_experiment(
            monte_carlo_spec("sstvs", 0.8, 1.2, cold_cfg), cache=cache)
        assert cache.stats.stores == 4
        warm_cfg = MonteCarloConfig(runs=4, backend="batched",
                                    workers=2, batch_width=2,
                                    solver="sparse")
        warm = run_experiment(
            monte_carlo_spec("sstvs", 0.8, 1.2, warm_cfg), cache=cache)
        assert cache.stats.hits == 4
        for a, b in zip(cold.values(), warm.values()):
            assert a == b
