"""Engine semantics: specs, workers, quarantine, resume, interrupts."""

import os

import pytest

from repro.errors import AnalysisError
from repro.runtime import telemetry
from repro.runtime.experiment import (
    ExperimentPoint, ExperimentSpec, ResultRow, ResultSet, run_experiment,
)
from repro.runtime.experiment.engine import plan_chunks
from repro.runtime.faults import FaultPlan
from repro.runtime.service import CampaignService, ServiceConfig

pytestmark = pytest.mark.experiment


def square(x):
    """Module-level measurement (picklable for worker pools)."""
    return x * x


def pid(x):
    return os.getpid()


def flaky(x):
    if x == 3.0:
        raise ValueError("bad point")
    return x + 1


def _batch_flaky(params_list):
    """Module-level batch measure (picklable for sharded-batched)."""
    from repro.runtime.experiment import BatchPointFailure
    return [BatchPointFailure(stage="build", error="lane died")
            if p == 3.0 else p * p for p in params_list]


def _batch_exploding(params_list):
    """Batch measure whose whole call fails on any chunk holding 2.0."""
    if 2.0 in params_list:
        raise RuntimeError("stack refused")
    return [p * p for p in params_list]


#: Every call of :func:`_batch_recording` made in this process.
_BATCH_CALLS = []


def _batch_recording(params_list):
    _BATCH_CALLS.append(list(params_list))
    return [p * p for p in params_list]


def _batch_chunk_sizes(params_list):
    """Batch measure whose every value is the size of its chunk."""
    return [len(params_list)] * len(params_list)


def _spec(measure=square, n=5, **overrides):
    points = [ExperimentPoint(i, float(i)) for i in range(n)]
    options = {"name": "unit", "measure": measure, "points": points,
               "stage": "measure", "codec": "json"}
    options.update(overrides)
    return ExperimentSpec(**options)


@pytest.fixture
def run():
    """The campaign entry point under test (see TestServiceEntryPoint)."""
    return run_experiment


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(AnalysisError):
            run_experiment(_spec(workers=0))

    def test_duplicate_indices_rejected(self):
        spec = _spec()
        spec.points = [ExperimentPoint(0, 0.0), ExperimentPoint(0, 1.0)]
        with pytest.raises(AnalysisError):
            run_experiment(spec)

    def test_local_measure_rejected_for_pools(self):
        def local_measure(x):
            return x

        with pytest.raises(AnalysisError):
            run_experiment(_spec(measure=local_measure, workers=2))

    def test_local_measure_fine_serially(self):
        result = run_experiment(_spec(measure=lambda x: x, workers=1))
        assert result.values() == [float(i) for i in range(5)]


class TestExecution:
    def test_serial_run(self):
        result = run_experiment(_spec())
        assert result.values() == [float(i) ** 2 for i in range(5)]
        assert result.counts["err"] == 0
        assert not result.interrupted

    def test_parallel_identical_to_serial(self):
        serial = run_experiment(_spec(n=8))
        parallel = run_experiment(_spec(n=8, workers=3))
        assert parallel.values() == serial.values()
        assert [r.index for r in parallel.rows] \
            == [r.index for r in serial.rows]

    def test_rows_in_spec_order_regardless_of_completion(self):
        result = run_experiment(_spec(n=9, workers=4))
        assert [row.index for row in result.rows] == list(range(9))

    def test_explicit_serial_backend_ignores_workers(self):
        pooled = run_experiment(_spec(measure=pid, n=4, workers=2))
        assert os.getpid() not in pooled.values()
        serial = run_experiment(_spec(measure=pid, n=4, workers=2,
                                      backend="serial"))
        assert serial.values() == [os.getpid()] * 4

    def test_progress_fires_per_success(self):
        seen = []
        run_experiment(_spec(), progress=lambda i, v: seen.append((i, v)))
        assert sorted(seen) == [(i, float(i) ** 2) for i in range(5)]

    def test_progress_exception_isolated_with_warning(self, run):
        def bad_progress(index, value):
            raise RuntimeError("observer crashed")

        with pytest.warns(RuntimeWarning, match="progress callback"):
            result = run(_spec(), progress=bad_progress)
        assert result.counts["ok"] == 5  # campaign unharmed

    def test_keyboard_interrupt_returns_partial(self):
        calls = []

        def interrupting(x):
            calls.append(x)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return x

        result = run_experiment(_spec(measure=interrupting))
        assert result.interrupted
        assert result.counts["ok"] == 2


class TestQuarantine:
    def test_errors_become_rows(self, run):
        result = run(_spec(measure=flaky))
        assert result.counts == {"total": 5, "ok": 4, "err": 1,
                                 "interrupted": False}
        failure = result.sample_failures()[0]
        assert failure.index == 3
        assert failure.stage == "measure"
        assert "ValueError: bad point" in failure.error

    def test_quarantine_survives_the_pool_boundary(self):
        result = run_experiment(_spec(measure=flaky, workers=2))
        assert result.counts["err"] == 1
        assert result.sample_failures()[0].index == 3

    def test_max_failures_aborts(self, run):
        with pytest.raises(AnalysisError, match="max_failures"):
            run(_spec(measure=flaky, max_failures=0))

    @pytest.mark.parametrize("backend", [None, "batched"])
    def test_fault_plan_injects_and_forces_serial(self, backend):
        # A fault plan also keeps a batched campaign off the lane path:
        # the batch call never happens, every point measures per point.
        _BATCH_CALLS.clear()
        spec = _spec(faults=FaultPlan.fail_samples([1, 4]), workers=8,
                     backend=backend, batch_measure=_batch_recording)
        result = run_experiment(spec)
        failures = result.sample_failures()
        assert [f.index for f in failures] == [1, 4]
        assert all(f.stage == "injected" for f in failures)
        assert _BATCH_CALLS == []


class TestResume:
    def test_resume_runs_only_missing_points(self, run, tmp_path):
        # Calls are logged to a file: the service measures in its
        # chunk worker processes.
        log = tmp_path / "calls.log"

        def tracking(x):
            with open(log, "a") as handle:
                handle.write(f"{x!r}\n")
            return x * x

        first = run(_spec(measure=tracking, n=3))
        partial = ResultSet(name="unit", codec="json",
                            rows=list(first.rows))
        log.unlink()
        resumed = run(_spec(measure=tracking, n=5), resume=partial)
        calls = [float(line) for line in log.read_text().split()]
        assert calls == [3.0, 4.0]
        assert resumed.values() == [float(i) ** 2 for i in range(5)]

    def test_resume_carries_quarantined_rows(self, run):
        partial = ResultSet(name="unit", codec="json", rows=[
            ResultRow(ordinal=0, index=2, status="err", stage="measure",
                      error="ValueError: old failure")])
        resumed = run(_spec(), resume=partial)
        assert resumed.counts["ok"] == 4
        assert resumed.sample_failures()[0].index == 2

    def test_resume_name_mismatch_rejected(self, run):
        stranger = ResultSet(name="other-experiment", codec="json")
        with pytest.raises(AnalysisError, match="other-experiment"):
            run(_spec(), resume=stranger)

    def test_resume_wrong_type_rejected(self, run):
        with pytest.raises(AnalysisError):
            run(_spec(), resume={"rows": []})

    def test_unknown_resume_indices_sort_after_live_points(self, run):
        partial = ResultSet(name="unit", codec="json", rows=[
            ResultRow(ordinal=0, index=99, status="ok", value=0.5)])
        resumed = run(_spec(), resume=partial)
        assert [row.index for row in resumed.rows] \
            == [0, 1, 2, 3, 4, 99]


class TestServiceEntryPoint(TestResume):
    """The engine-semantics tests again, through ``CampaignService.run``.

    The service reuses the engine's campaign bookkeeping, so resume,
    quarantine, ``max_failures`` and progress isolation must behave
    the same through both entry points. This class inherits every
    TestResume case and borrows three more; only ``run`` differs.
    """

    @pytest.fixture
    def run(self, tmp_path):
        config = ServiceConfig(chunk_size=2, workers=2,
                               poll_interval_s=0.005)
        return CampaignService(tmp_path / "store", config=config).run

    test_errors_become_rows = TestQuarantine.test_errors_become_rows
    test_max_failures_aborts = TestQuarantine.test_max_failures_aborts
    test_progress_exception_isolated_with_warning = (
        TestExecution.test_progress_exception_isolated_with_warning)


class TestChunkPlan:
    """How pending points are cut into pool tasks."""

    @pytest.mark.parametrize("pending, width, workers, sizes", [
        (49, 128, 2, [25, 24]),
        (200, 128, 2, [100, 100]),
        (512, 128, 2, [128] * 4),
        (0, 128, 2, []),
        (7, 3, 1, [3, 3, 1]),
        (5, 1, 3, [1] * 5),
    ])
    def test_chunk_sizes(self, pending, width, workers, sizes):
        chunks = plan_chunks(list(range(pending)), width, workers)
        assert [len(chunk) for chunk in chunks] == sizes
        assert [p for chunk in chunks for p in chunk] \
            == list(range(pending))

    @pytest.mark.parametrize("workers, sizes", [
        (1, [49] * 49),
        (2, [25] * 25 + [24] * 24),
    ])
    def test_default_backend_runs_lanes(self, workers, sizes):
        # A spec with a batch_measure runs batched with no backend
        # named, split evenly over the workers.
        result = run_experiment(_spec(n=49, workers=workers,
                                      batch_measure=_batch_chunk_sizes))
        assert result.values() == sizes

    def test_serial_backend_measures_per_point(self):
        result = run_experiment(_spec(n=3, backend="serial", workers=2,
                                      batch_measure=_batch_chunk_sizes))
        assert result.values() == [0.0, 1.0, 4.0]

    def test_default_sharding_requires_module_level_batch_measure(self):
        def local_batch(params_list):
            return [p * p for p in params_list]

        with pytest.raises(AnalysisError, match="module-level"):
            run_experiment(_spec(workers=2, batch_measure=local_batch))
        # Nothing is shipped to a pool on the serial backend, nor
        # under a fault plan, which runs in-process.
        result = run_experiment(_spec(backend="serial", workers=2,
                                      batch_measure=local_batch))
        assert result.counts["ok"] == 5
        result = run_experiment(_spec(faults=FaultPlan.fail_samples([]),
                                      workers=2, batch_measure=local_batch))
        assert result.counts["ok"] == 5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ambient_collecting_tracer_keeps_default_per_point(
            self, workers):
        # A profiler around the whole run counts the per-point kernel
        # when the backend is left implicit; naming "batched" still
        # runs lanes under it.
        with telemetry.trace(telemetry.CollectingTracer()):
            default = run_experiment(_spec(
                n=4, workers=workers, batch_measure=_batch_chunk_sizes))
            named = run_experiment(_spec(
                n=4, workers=workers, backend="batched",
                batch_measure=_batch_chunk_sizes))
        assert default.values() == [0.0, 1.0, 4.0, 9.0]
        assert named.values() == [4 // workers] * 4


class TestBatchedBackend:
    """The SPMD dispatch: chunking, per-lane quarantine, eviction."""

    @staticmethod
    def _batch_square(params_list):
        return [p * p for p in params_list]

    def test_backend_name_validated(self):
        with pytest.raises(AnalysisError, match="backend"):
            run_experiment(_spec(backend="gpu"))

    def test_batched_requires_batch_measure(self):
        with pytest.raises(AnalysisError, match="batch_measure"):
            run_experiment(_spec(backend="batched"))

    def test_sharded_batched_matches_serial(self):
        # batched × workers composes: chunks become per-worker shards
        # and the results are bitwise those of the serial campaign.
        serial = run_experiment(_spec(n=9))
        sharded = run_experiment(_spec(n=9, backend="batched",
                                       batch_width=2, workers=3,
                                       batch_measure=self._batch_square))
        assert sharded.values() == serial.values()
        assert [r.index for r in sharded.rows] \
            == [r.index for r in serial.rows]

    def test_sharded_batched_requires_module_level_batch_measure(self):
        def local_batch(params_list):
            return [p * p for p in params_list]

        with pytest.raises(AnalysisError, match="module-level"):
            run_experiment(_spec(backend="batched", workers=2,
                                 batch_measure=local_batch))

    def test_sharded_quarantine_survives_the_pool_boundary(self):
        result = run_experiment(_spec(n=6, measure=flaky,
                                      backend="batched", batch_width=2,
                                      workers=2,
                                      batch_measure=_batch_flaky))
        assert result.counts["ok"] == 5
        failure = result.sample_failures()[0]
        assert failure.index == 3
        assert failure.stage == "build"
        assert "lane died" in failure.error

    def test_batch_width_must_be_positive(self):
        with pytest.raises(AnalysisError, match="batch_width"):
            run_experiment(_spec(backend="batched", batch_width=0,
                                 batch_measure=self._batch_square))

    def test_resolved_backend_defaults(self):
        # There is no "pool" backend: the default (None) already runs
        # over a pool when workers > 1.
        with pytest.raises(AnalysisError, match="backend"):
            run_experiment(_spec(backend="pool", workers=3))

    def test_batched_identical_to_serial(self):
        serial = run_experiment(_spec(n=7))
        batched = run_experiment(_spec(
            n=7, backend="batched", batch_width=3,
            batch_measure=self._batch_square))
        assert batched.values() == serial.values()
        assert [r.index for r in batched.rows] \
            == [r.index for r in serial.rows]

    def test_chunking_respects_batch_width(self):
        widths = []

        def recording(params_list):
            widths.append(len(params_list))
            return [p * p for p in params_list]

        run_experiment(_spec(n=7, backend="batched", batch_width=3,
                             batch_measure=recording))
        assert widths == [3, 3, 1]

    def test_batch_point_failure_is_quarantined(self):
        from repro.runtime.experiment import BatchPointFailure

        def partial(params_list):
            return [BatchPointFailure(stage="build", error="lane died")
                    if p == 2.0 else p * p for p in params_list]

        result = run_experiment(_spec(n=5, backend="batched",
                                      batch_measure=partial))
        assert result.counts == {"total": 5, "ok": 4, "err": 1,
                                 "interrupted": False}
        failure = result.sample_failures()[0]
        assert failure.index == 2
        assert failure.stage == "build"
        assert "lane died" in failure.error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_chunk_evicted_to_serial(self, workers):
        # A whole-call crash (e.g. the lanes cannot be stacked) must
        # not lose the chunk: every point re-runs through the serial
        # measure and the campaign still matches a serial run. At
        # workers=2 the eviction happens inside a pool worker.
        result = run_experiment(_spec(n=6, backend="batched",
                                      batch_width=2, workers=workers,
                                      batch_measure=_batch_exploding))
        assert result.counts["err"] == 0
        assert result.values() == [float(i) ** 2 for i in range(6)]

    def test_wrong_length_reply_evicted_to_serial(self):
        def short(params_list):
            return [p * p for p in params_list][:-1]

        result = run_experiment(_spec(n=4, backend="batched",
                                      batch_width=2,
                                      batch_measure=short))
        assert result.counts["err"] == 0
        assert result.values() == [float(i) ** 2 for i in range(4)]

    def test_serial_fallback_quarantines_real_failures(self):
        # Eviction re-runs the serial measure; a point that genuinely
        # fails there lands in quarantine with the serial stage label.
        def exploding(params_list):
            raise RuntimeError("stack refused")

        result = run_experiment(_spec(n=5, measure=flaky,
                                      backend="batched",
                                      batch_measure=exploding))
        assert result.counts["ok"] == 4
        failure = result.sample_failures()[0]
        assert failure.index == 3
        assert failure.stage == "measure"

    def test_max_failures_enforced_for_batched_lanes(self):
        from repro.runtime.experiment import BatchPointFailure

        def all_dead(params_list):
            return [BatchPointFailure(stage="build", error="nope")
                    for _ in params_list]

        with pytest.raises(AnalysisError, match="max_failures"):
            run_experiment(_spec(n=5, backend="batched",
                                 batch_measure=all_dead,
                                 max_failures=1))

    def test_resume_runs_only_missing_points_batched(self):
        seen = []

        def recording(params_list):
            seen.extend(params_list)
            return [p * p for p in params_list]

        first = run_experiment(_spec(n=3))
        spec = _spec(n=6, backend="batched", batch_measure=recording)
        result = run_experiment(spec, resume=first)
        assert sorted(seen) == [3.0, 4.0, 5.0]
        assert result.values() == [float(i) ** 2 for i in range(6)]

    def test_tracing_forces_per_point_path(self):
        calls = []

        def recording(params_list):
            calls.append(list(params_list))
            return [p * p for p in params_list]

        result = run_experiment(_spec(n=3, backend="batched",
                                      batch_measure=recording,
                                      trace="collect"))
        assert calls == []  # traced campaigns stay per-point
        assert result.values() == [float(i) ** 2 for i in range(3)]
