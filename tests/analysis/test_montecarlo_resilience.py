"""Fault-tolerant Monte Carlo: quarantine, callback isolation, resume.

The 200-sample campaigns stub out ``characterize`` and its lane-group
twin ``characterize_batch`` (the machinery under test is the campaign
runtime, not the device physics); a small real-solver campaign lives
in the CLI ``check`` self-test.
"""

import warnings

import pytest

import repro.analysis.montecarlo as mc_module
from repro.analysis import MonteCarloConfig, run_monte_carlo
from repro.analysis.montecarlo import monte_carlo_spec
from repro.core import ShifterMetrics, StimulusPlan
from repro.errors import AnalysisError
from repro.runtime import FaultPlan, FaultSpec, run_experiment

pytestmark = pytest.mark.resilience

FAST_PLAN = StimulusPlan(settle=3e-9, hold=2e-9, short=0.8e-9)

#: Sample indices sabotaged in the acceptance-criteria campaign.
INJECTED = [5, 50, 99, 150, 199]


def fake_characterize(pdk, kind, vddi, vddo, plan=None, sizing=None):
    """Cheap, deterministic stand-in: metrics derived from the PDK's
    per-sample RNG stream (so resumed samples match straight runs)."""
    value = float(pdk.rng.normal(1e-9, 1e-11))
    return ShifterMetrics(value, value, 1e-6, 1e-6, 1e-9, 1e-9,
                          functional=True)


def fake_characterize_batch(lanes):
    """Lane-group stand-in: :func:`fake_characterize` on every lane."""
    return [fake_characterize(pdk, kind, vddi, vddo, plan=plan,
                              sizing=sizing)
            for pdk, kind, vddi, vddo, plan, _, sizing, _ in lanes]


def refused_lane_group(lanes):
    """A lane group that raises as a whole: the engine evicts the
    chunk to the per-point ``characterize``."""
    raise RuntimeError("lane group refused")


@pytest.fixture
def stub_characterize(monkeypatch):
    monkeypatch.setattr(mc_module, "characterize", fake_characterize)
    monkeypatch.setattr(mc_module, "characterize_batch",
                        fake_characterize_batch)


def exploding_characterize():
    """``characterize`` stand-in whose second call dies hard."""
    calls = []

    def exploding(pdk, kind, vddi, vddo, plan=None, sizing=None):
        calls.append(len(calls))
        if len(calls) == 2:  # second sample dies hard
            raise RuntimeError("disk on fire")
        return fake_characterize(pdk, kind, vddi, vddo)

    return exploding


class TestAcceptanceCampaign:
    """The issue's acceptance criteria, verbatim: 200 samples, faults
    at >= 5 indices, no raise, exact quarantine, reflected yield."""

    @pytest.fixture(scope="class")
    def result(self):
        # Class-scoped monkeypatching by hand (fixture-based
        # monkeypatch is function-scoped).
        original = mc_module.characterize
        mc_module.characterize = fake_characterize
        try:
            config = MonteCarloConfig(
                runs=200, seed=11, plan=FAST_PLAN,
                faults=FaultPlan.fail_samples(INJECTED))
            yield run_monte_carlo("sstvs", 0.8, 1.2, config)
        finally:
            mc_module.characterize = original

    def test_completes_without_raising(self, result):
        assert not result.interrupted
        assert len(result.samples) == 200 - len(INJECTED)

    def test_quarantine_names_exact_indices(self, result):
        assert result.quarantined == INJECTED
        assert all(f.stage == "injected" for f in result.failures)

    def test_yield_reflects_quarantine(self, result):
        assert result.functional_yield == pytest.approx(
            (200 - len(INJECTED)) / 200)

    def test_statistics_cover_survivors_only(self, result):
        assert result.statistics is not None
        assert result.statistics.runs == 200 - len(INJECTED)

    def test_completed_indices_skip_quarantined(self, result):
        assert set(result.completed_indices) == \
            set(range(200)) - set(INJECTED)

    def test_failure_summary_mentions_counts(self, result):
        text = result.failure_summary()
        assert "195/200" in text
        assert "5 quarantined" in text


class TestQuarantine:
    def test_characterize_exception_quarantined(self, monkeypatch,
                                                caplog):
        # The default campaign runs lanes; a refused lane group is
        # evicted to the per-point path, where the second sample dies.
        monkeypatch.setattr(mc_module, "characterize",
                            exploding_characterize())
        monkeypatch.setattr(mc_module, "characterize_batch",
                            refused_lane_group)
        result = run_monte_carlo("sstvs", 0.8, 1.2,
                                 MonteCarloConfig(runs=4, seed=1))
        assert result.quarantined == [1]
        assert result.failures[0].stage == "characterize"
        assert "disk on fire" in result.failures[0].error
        assert len(result.samples) == 3
        assert "lane group refused" in caplog.text
        assert "chunk evicted" in caplog.text

    def test_characterize_exception_quarantined_serial(self, monkeypatch):
        monkeypatch.setattr(mc_module, "characterize",
                            exploding_characterize())
        result = run_monte_carlo("sstvs", 0.8, 1.2,
                                 MonteCarloConfig(runs=4, seed=1,
                                                  backend="serial"))
        assert result.quarantined == [1]
        assert result.failures[0].stage == "characterize"
        assert "disk on fire" in result.failures[0].error
        assert len(result.samples) == 3

    def test_all_samples_failing_returns_empty_result(self,
                                                      stub_characterize):
        config = MonteCarloConfig(runs=3, seed=1,
                                  faults=FaultPlan.fail_samples([0, 1, 2]))
        result = run_monte_carlo("sstvs", 0.8, 1.2, config)
        assert result.samples == []
        assert result.statistics is None
        assert result.functional_yield == 0.0
        assert result.quarantined == [0, 1, 2]

    def test_max_failures_aborts(self, stub_characterize):
        config = MonteCarloConfig(runs=10, seed=1, max_failures=1,
                                  faults=FaultPlan.fail_samples([0, 1, 2]))
        with pytest.raises(AnalysisError, match="max_failures"):
            run_monte_carlo("sstvs", 0.8, 1.2, config)

    def test_solver_fault_degrades_to_nonfunctional(self):
        # A solver-level fault inside one sample is absorbed by
        # characterize (non-functional NaN metrics), not quarantined —
        # but the yield still reflects it.
        plan = FaultPlan([FaultSpec(kind, sample_index=2, count=None)
                          for kind in ("iteration_exhaustion",)])
        config = MonteCarloConfig(runs=3, seed=99, plan=FAST_PLAN,
                                  faults=plan)
        result = run_monte_carlo("sstvs", 0.8, 1.2, config)
        assert result.quarantined == []
        assert len(result.samples) == 3
        assert not result.samples[2].functional
        assert result.functional_yield == pytest.approx(2 / 3)


class TestProgressIsolation:
    def test_progress_exception_does_not_abort(self, stub_characterize):
        seen = []

        def bad_progress(index, metrics):
            seen.append(index)
            raise ValueError("observer bug")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_monte_carlo(
                "sstvs", 0.8, 1.2, MonteCarloConfig(runs=5, seed=1),
                progress=bad_progress)
        assert len(result.samples) == 5
        assert seen == [0]  # disabled after the first explosion
        runtime_warnings = [w for w in caught
                            if issubclass(w.category, RuntimeWarning)]
        assert len(runtime_warnings) == 1
        assert "progress callback" in str(runtime_warnings[0].message)

    def test_healthy_progress_still_called_every_sample(
            self, stub_characterize):
        seen = []
        run_monte_carlo("sstvs", 0.8, 1.2,
                        MonteCarloConfig(runs=3, seed=1),
                        progress=lambda i, m: seen.append(i))
        assert seen == [0, 1, 2]


class TestInterruptionAndResume:
    def test_interrupt_returns_partial(self, stub_characterize):
        def interrupting(index, metrics):
            if index == 1:
                raise KeyboardInterrupt

        result = run_monte_carlo("sstvs", 0.8, 1.2,
                                 MonteCarloConfig(runs=6, seed=3),
                                 progress=interrupting)
        assert result.interrupted
        assert result.completed_indices == [0, 1]
        assert len(result.samples) == 2

    def test_resume_is_seed_stable(self, stub_characterize):
        config = MonteCarloConfig(runs=6, seed=3)
        straight = run_monte_carlo("sstvs", 0.8, 1.2, config)

        def interrupting(index, metrics):
            if index == 1:
                raise KeyboardInterrupt

        partial = run_experiment(
            monte_carlo_spec("sstvs", 0.8, 1.2, config),
            progress=interrupting)
        resumed = run_monte_carlo("sstvs", 0.8, 1.2, config,
                                  resume=partial)
        assert not resumed.interrupted
        assert resumed.completed_indices == list(range(6))
        assert [s.delay_rise for s in resumed.samples] == \
            [s.delay_rise for s in straight.samples]

    def test_resume_skips_quarantined(self, stub_characterize):
        config = MonteCarloConfig(runs=4, seed=3,
                                  faults=FaultPlan.fail_samples([2]))
        partial = run_experiment(
            monte_carlo_spec("sstvs", 0.8, 1.2, config))
        resumed = run_monte_carlo("sstvs", 0.8, 1.2, config,
                                  resume=partial)
        # The quarantined sample is carried over, not retried.
        assert resumed.quarantined == [2]
        assert len(resumed.failures) == 1
        assert resumed.completed_indices == [0, 1, 3]
