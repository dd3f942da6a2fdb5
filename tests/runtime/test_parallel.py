"""Process-pool campaign execution: parity, ordering, isolation.

The contract under test: ``workers > 1`` changes wall-clock behaviour
only. Every campaign driver (Monte Carlo, delay sweep, functional
grid, PVT corners) must produce results identical to its serial run —
sample for sample for Monte Carlo, since per-sample seeds derive from
the sample index alone — while progress callbacks fire in completion
order with the sample index attached and callback exceptions stay
isolated (PR 1 semantics).

Campaign-level tests stub the characterization kernel (the machinery
under test is the distribution layer, not the physics): the per-point
function and its lane-group twin both, since a campaign with a
``batch_measure`` runs batched by default. Pool workers inherit the
stub because the pool forks at first iteration, while the monkeypatch
is active.
"""

import os
import time
import warnings
from pathlib import Path

import pytest

import repro.analysis.corners as corners_module
import repro.analysis.montecarlo as mc_module
import repro.analysis.sweep as sweep_module
from repro.analysis import (
    MonteCarloConfig, SweepGrid, pvt_report, run_monte_carlo,
    sweep_delay_surface, validate_functionality,
)
from repro.analysis.montecarlo import monte_carlo_spec
from repro.cli import build_parser
from repro.core import ShifterMetrics, StimulusPlan
from repro.runtime import (
    ArtifactStore, ExperimentPoint, ExperimentSpec, FaultPlan, ResultSet,
    TRACE_SCHEMA, run_experiment,
)
from repro.runtime.parallel import parallel_map, usable_cpus

pytestmark = pytest.mark.resilience

FAST_PLAN = StimulusPlan(settle=3e-9, hold=2e-9, short=0.8e-9)


def _square(task):
    return task * task


def _boom(task):
    raise ValueError(f"task {task} exploded")


def _pid(task):
    return os.getpid()


def _wait_for_the_others(task):
    """Task 0 waits for a marker from every other task; they write one.

    Returns ``(index, saw_every_marker)``. Task 0 only sees all the
    markers if the other tasks run while it waits, i.e. if none of
    them was queued behind it in the same worker.
    """
    index, root, others = task
    root = Path(root)
    if index:
        (root / f"done-{index}").touch()
        return index, True
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if len(list(root.glob("done-*"))) == others:
            return index, True
        time.sleep(0.01)
    return index, False


def fake_characterize(pdk, kind, vddi, vddo, plan=None, sizing=None):
    value = float(pdk.rng.normal(1e-9, 1e-11))
    return ShifterMetrics(value, value, 1e-6, 1e-6, 1e-9, 1e-9,
                          functional=True)


def fake_characterize_corner(pdk, kind, vddi, vddo, plan=None,
                             sizing=None):
    value = 1e-9 * (1.0 + getattr(pdk, "temperature_c", 27.0) / 100.0)
    return ShifterMetrics(value, value, 1e-6, 1e-6, 1e-9, 1e-9,
                          functional=True)


def fake_characterize_batch(lanes):
    """Lane-group stand-in: :func:`fake_characterize` on every lane."""
    return [fake_characterize(pdk, kind, vddi, vddo, plan=plan,
                              sizing=sizing)
            for pdk, kind, vddi, vddo, plan, _, sizing, _ in lanes]


class FakeQuick:
    def __init__(self, delay):
        self.delay_rise = delay
        self.delay_fall = delay * 1.5
        self.functional = True


def fake_quick_delays(pdk, kind, vddi, vddo, sizing=None):
    return FakeQuick(1e-12 * (vddi + 10.0 * vddo))


def fake_quick_delays_batch(lanes):
    """Lane-group stand-in: :func:`fake_quick_delays` on every lane."""
    return [fake_quick_delays(pdk, kind, vddi, vddo, sizing=sizing)
            for pdk, kind, vddi, vddo, _, _, sizing in lanes]


@pytest.fixture
def stub_characterize(monkeypatch):
    monkeypatch.setattr(mc_module, "characterize", fake_characterize)
    monkeypatch.setattr(mc_module, "characterize_batch",
                        fake_characterize_batch)
    monkeypatch.setattr(corners_module, "characterize",
                        fake_characterize_corner)


@pytest.fixture
def stub_quick_delays(monkeypatch):
    monkeypatch.setattr(sweep_module, "quick_delays", fake_quick_delays)
    monkeypatch.setattr(sweep_module, "quick_delays_batch",
                        fake_quick_delays_batch)
    import repro.analysis.functional as functional_module
    monkeypatch.setattr(functional_module, "quick_delays",
                        fake_quick_delays)


class TestParallelMap:
    def test_pool_yields_same_results_as_serial(self):
        tasks = list(range(23))
        serial = list(parallel_map(_square, tasks, workers=1))
        pooled = list(parallel_map(_square, tasks, workers=3))
        assert sorted(pooled) == sorted(serial) == [t * t for t in tasks]

    def test_single_task_runs_inline(self):
        assert list(parallel_map(_square, [7], workers=8)) == [49]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="exploded"):
            list(parallel_map(_boom, [1, 2, 3], workers=2))

    def test_pool_dispatches_one_task_at_a_time(self, tmp_path):
        # Batched dispatch would queue tasks 1.. behind task 0 in one
        # worker, and task 0 would wait out its timeout for them.
        tasks = [(i, str(tmp_path), 16) for i in range(17)]
        seen = dict(parallel_map(_wait_for_the_others, tasks, workers=2))
        assert seen == {i: True for i in range(17)}

    def test_completed_map_leaves_no_pool_behind(self):
        # A pool still winding down when the interpreter exits races
        # the executor's exit hook, which then prints an EBADF
        # traceback after a successful run.
        import multiprocessing
        import threading
        assert sorted(parallel_map(_square, range(4), workers=2)) == \
            [0, 1, 4, 9]
        assert multiprocessing.active_children() == []
        assert not [t for t in threading.enumerate()
                    if type(t).__name__ == "_ExecutorManagerThread"]


CAMPAIGN_ARGV = [
    ["characterize", "sstvs"], ["sweep"], ["mc"], ["functional"],
    ["temp"], ["sens"], ["liberty", "sstvs"], ["vtc", "sstvs"], ["pvt"],
    ["floorplan"],
]


class TestWorkersDefault:
    @pytest.mark.parametrize("argv", CAMPAIGN_ARGV,
                             ids=[argv[0] for argv in CAMPAIGN_ARGV])
    def test_cli_default_is_usable_cpus(self, argv):
        assert build_parser().parse_args(argv).workers == usable_cpus()

    def test_usable_cpus_follows_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert usable_cpus() == 3

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1

    def test_one_cpu_affinity_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        workers = build_parser().parse_args(["sweep"]).workers
        assert workers == 1
        assert set(parallel_map(_pid, range(4), workers=workers)) \
            == {os.getpid()}


class TestMonteCarloParity:
    def test_pool_samples_bitwise_identical_to_serial(
            self, stub_characterize):
        serial = run_monte_carlo(
            "sstvs", 0.8, 1.2,
            MonteCarloConfig(runs=40, seed=11, plan=FAST_PLAN))
        pooled = run_monte_carlo(
            "sstvs", 0.8, 1.2,
            MonteCarloConfig(runs=40, seed=11, plan=FAST_PLAN,
                             workers=3))
        assert pooled.samples == serial.samples  # exact float equality
        assert pooled.completed_indices == serial.completed_indices
        assert pooled.functional_yield == serial.functional_yield

    def test_progress_fires_per_sample_with_index(self,
                                                  stub_characterize):
        seen = {}
        result = run_monte_carlo(
            "sstvs", 0.8, 1.2,
            MonteCarloConfig(runs=12, seed=3, plan=FAST_PLAN, workers=3),
            progress=lambda index, metrics: seen.__setitem__(index,
                                                             metrics))
        assert sorted(seen) == list(range(12))
        # Callback metrics match the (index-sorted) result samples.
        assert [seen[i] for i in range(12)] == result.samples

    def test_progress_exception_isolated_under_pool(self,
                                                    stub_characterize):
        def bad_progress(index, metrics):
            raise RuntimeError("observer crashed")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_monte_carlo(
                "sstvs", 0.8, 1.2,
                MonteCarloConfig(runs=8, seed=5, plan=FAST_PLAN,
                                 workers=2),
                progress=bad_progress)
        assert len(result.samples) == 8
        isolation = [w for w in caught
                     if "progress callback" in str(w.message)]
        assert len(isolation) == 1

    def test_fault_campaigns_run_serially_with_workers_set(
            self, stub_characterize):
        config = MonteCarloConfig(runs=10, seed=7, plan=FAST_PLAN,
                                  workers=4,
                                  faults=FaultPlan.fail_samples([2, 6]))
        result = run_monte_carlo("sstvs", 0.8, 1.2, config)
        assert result.quarantined == [2, 6]
        assert len(result.samples) == 8

    def test_resume_with_workers_fills_only_missing(
            self, stub_characterize):
        full = run_monte_carlo(
            "sstvs", 0.8, 1.2,
            MonteCarloConfig(runs=20, seed=9, plan=FAST_PLAN))
        partial = run_experiment(monte_carlo_spec(
            "sstvs", 0.8, 1.2,
            MonteCarloConfig(runs=8, seed=9, plan=FAST_PLAN)))
        resumed = run_monte_carlo(
            "sstvs", 0.8, 1.2,
            MonteCarloConfig(runs=20, seed=9, plan=FAST_PLAN, workers=3),
            resume=partial)
        assert resumed.samples == full.samples


class TestCampaignParity:
    def test_sweep_pool_matches_serial(self, stub_quick_delays):
        grid = SweepGrid.with_step(0.1)
        serial = sweep_delay_surface("sstvs", grid)
        pooled = sweep_delay_surface("sstvs", grid, workers=3)
        assert (pooled.rise == serial.rise).all()
        assert (pooled.fall == serial.fall).all()
        assert (pooled.functional == serial.functional).all()

    def test_sweep_progress_carries_cell_indices(self,
                                                 stub_quick_delays):
        grid = SweepGrid.with_step(0.2)
        seen = set()
        sweep_delay_surface("sstvs", grid, workers=2,
                            progress=lambda i, j, q: seen.add((i, j)))
        n = grid.vddi_values.size
        assert seen == {(i, j) for i in range(n) for j in range(n)}

    def test_functional_pool_matches_serial(self, stub_quick_delays):
        grid = SweepGrid.with_step(0.15)
        serial = validate_functionality("sstvs", grid)
        pooled = validate_functionality("sstvs", grid, workers=3)
        assert pooled.passed == serial.passed
        assert pooled.total == serial.total
        assert pooled.failures == serial.failures

    def test_pvt_pool_matches_serial(self, stub_characterize):
        serial = pvt_report("sstvs", 0.8, 1.2)
        pooled = pvt_report("sstvs", 0.8, 1.2, workers=3)
        assert [(p.corner, p.temperature_c) for p in pooled.points] \
            == [(p.corner, p.temperature_c) for p in serial.points]
        assert [p.metrics for p in pooled.points] \
            == [p.metrics for p in serial.points]


def traced_solve(params):
    """Module-level traced measurement: one real DC solve per point.

    Everything derives from ``params`` so pooled runs are bitwise
    identical to serial; the solve emits genuine spice-layer telemetry
    (newton.iterations, dc.* counters) rather than synthetic counts.
    """
    from repro.spice import Circuit, OperatingPoint
    from repro.spice.devices import Diode, Resistor, VoltageSource

    vdd, resistance = params
    ckt = Circuit("trace_point")
    ckt.add(VoltageSource("v", "in", "0", dc=vdd))
    ckt.add(Resistor("r", "in", "d", resistance))
    ckt.add(Diode("d1", "d", "0"))
    return OperatingPoint(ckt).run()["d"]


def traced_flaky(params):
    vdd, _ = params
    if vdd > 1.1:
        raise ValueError("diverged")
    return traced_solve(params)


def _traced_spec(n=100, measure=traced_solve, **overrides):
    points = [ExperimentPoint(i, (0.6 + 0.6 * (i % 10) / 10.0,
                                  1e3 * (1 + i % 7)))
              for i in range(n)]
    options = {"name": "trace_parity", "measure": measure,
               "points": points, "stage": "solve", "codec": "json",
               "trace": "collect"}
    options.update(overrides)
    return ExperimentSpec(**options)


def _deterministic(document):
    """Trace document minus wall-clock payloads (timers, *wall_s).

    Counters and value histograms are exact replicas of the solve
    sequence and must match bitwise across serial/pooled runs; wall
    times are real clock readings and cannot.
    """
    def clean(snap):
        return {"counters": snap["counters"],
                "histograms": {name: payload for name, payload
                               in snap["histograms"].items()
                               if not name.endswith("wall_s")}}

    return {"mode": document["mode"],
            "points": [{"index": p["index"], **clean(p)}
                       for p in document["points"]],
            "totals": clean(document["totals"])}


class TestTraceParity:
    """Satellite contract: trace merging never perturbs results, and
    pooled traces are deterministic-field identical to serial ones."""

    def test_pooled_run_bitwise_equal_serial_with_tracing(self):
        serial = run_experiment(_traced_spec())
        pooled = run_experiment(_traced_spec(workers=3))
        # The measured values themselves: exact float equality.
        assert pooled.values() == serial.values()
        assert [r.index for r in pooled.rows] \
            == [r.index for r in serial.rows]
        # And the merged traces, minus wall-clock noise.
        assert serial.trace["schema"] == TRACE_SCHEMA
        assert len(serial.trace["points"]) == 100
        assert _deterministic(pooled.trace) == _deterministic(serial.trace)

    def test_tracing_does_not_change_values(self):
        traced = run_experiment(_traced_spec(n=20))
        untraced = run_experiment(_traced_spec(n=20, trace=None))
        assert traced.values() == untraced.values()
        assert untraced.trace is None

    def test_quarantined_points_keep_partial_traces(self):
        spec = _traced_spec(n=20, measure=traced_flaky, workers=3)
        pooled = run_experiment(spec)
        serial = run_experiment(
            _traced_spec(n=20, measure=traced_flaky))
        assert pooled.counts["err"] == serial.counts["err"] > 0
        assert _deterministic(pooled.trace) == _deterministic(serial.trace)

    def test_trace_roundtrips_through_store(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        result = run_experiment(_traced_spec(n=10), store=store)
        loaded = store.load(result.run_id)
        assert loaded.trace == result.trace
        # And through the plain JSON codec.
        assert ResultSet.from_json(result.to_json()).trace == result.trace
