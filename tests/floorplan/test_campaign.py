"""Floorplanning under the unified experiment engine.

The SoC-scale test here is the ISSUE's acceptance gate: a 1000+-block
synthetic floorplan completes end-to-end (generate, assign, anneal,
STA sign-off) under the engine, and the result is bitwise-reproducible
regardless of worker count, resume state, or cache temperature.
"""

import pytest

from repro.errors import AnalysisError
from repro.floorplan import (
    FLOORPLAN_STRATEGIES, best_by_strategy, floorplan_spec,
)
from repro.runtime.cache import SolveCache
from repro.runtime.experiment import ArtifactStore, ResultSet, run_experiment

pytestmark = [pytest.mark.floorplan, pytest.mark.experiment]


def _payloads(result) -> dict:
    return {row.index: row.value for row in result.rows if row.ok}


class TestSpec:
    def test_points_span_strategies_and_restarts(self):
        spec = floorplan_spec(blocks=8, domains=3, restarts=2, seed=5)
        indexes = [p.index for p in spec.points]
        assert len(indexes) == len(FLOORPLAN_STRATEGIES) * 2
        assert "sstvs/s5" in indexes and "sstvs/s6" in indexes

    def test_unknown_strategy_rejected(self):
        with pytest.raises(AnalysisError):
            floorplan_spec(strategies=("osmosis",))

    def test_unknown_timing_mode_rejected(self):
        with pytest.raises(AnalysisError):
            floorplan_spec(timing="crystal-ball")

    def test_leakage_table_travels_canonically(self):
        spec = floorplan_spec(blocks=8, domains=3,
                              leakage={"sstvs": 2e-9, "cvs": 1e-9})
        leakage = spec.points[0].params[7]
        assert leakage == ("table", (("cvs", 1e-9), ("sstvs", 2e-9)))

    def test_metadata_records_the_configuration(self):
        spec = floorplan_spec(blocks=8, domains=3, node="ptm90",
                              restarts=2)
        assert spec.metadata["pdk_node"] == "ptm90"
        assert spec.metadata["blocks"] == 8
        assert spec.metadata["restarts"] == 2


class TestDeterminismAcrossExecution:
    def test_worker_count_does_not_change_the_bits(self):
        serial = run_experiment(floorplan_spec(
            blocks=24, domains=4, moves=150, workers=1))
        pooled = run_experiment(floorplan_spec(
            blocks=24, domains=4, moves=150, workers=2))
        assert _payloads(serial) == _payloads(pooled)

    def test_rerun_is_bitwise_identical(self):
        spec = lambda: floorplan_spec(blocks=16, domains=3, moves=150)
        a = run_experiment(spec())
        b = run_experiment(spec())
        assert _payloads(a) == _payloads(b)

    def test_resume_completes_without_recomputing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = floorplan_spec(blocks=16, domains=3, moves=150,
                              strategies=("sstvs", "cvs"))
        full = run_experiment(spec, store=store)
        # Drop the cvs rows and resume: only they may be recomputed,
        # and the final payloads must match the uninterrupted run.
        partial = ResultSet(
            name=full.name, codec=full.codec,
            rows=[r for r in full.rows
                  if r.value["strategy"] == "sstvs"])
        resumed = run_experiment(
            floorplan_spec(blocks=16, domains=3, moves=150,
                           strategies=("sstvs", "cvs")),
            resume=partial)
        assert _payloads(resumed) == _payloads(full)

    def test_cache_serves_warm_points_bitwise(self, tmp_path):
        spec = lambda: floorplan_spec(blocks=12, domains=3, moves=120,
                                      strategies=("sstvs",))
        cold_cache = SolveCache(tmp_path / "cache")
        cold = run_experiment(spec(), cache=cold_cache)
        assert cold_cache.stats.stores > 0
        warm_cache = SolveCache(tmp_path / "cache")
        warm = run_experiment(spec(), cache=warm_cache)
        assert warm_cache.stats.hits == len(spec().points)
        assert _payloads(warm) == _payloads(cold)


class TestSignoffGating:
    def test_require_signoff_quarantines_violations(self):
        # An absurd 1 ps budget cannot be met; with require_signoff
        # the point fails (quarantined), without it the violation is
        # reported in the payload.
        reported = run_experiment(floorplan_spec(
            blocks=8, domains=3, moves=100, strategies=("sstvs",),
            required=1e-12))
        row = reported.rows[0]
        assert row.ok
        assert not row.value["signoff_ok"]
        assert row.value["violations"] > 0

        gated = run_experiment(floorplan_spec(
            blocks=8, domains=3, moves=100, strategies=("sstvs",),
            required=1e-12, require_signoff=True))
        failures = gated.sample_failures()
        assert len(failures) == 1
        assert "sign-off" in failures[0].error


class TestBestByStrategy:
    def test_picks_the_lowest_cost_restart(self):
        result = run_experiment(floorplan_spec(
            blocks=10, domains=3, moves=120, restarts=3,
            strategies=("sstvs",)))
        best = best_by_strategy(result)
        costs = [row.value["cost"] for row in result.rows if row.ok]
        assert best["sstvs"]["cost"] == min(costs)


@pytest.mark.integration
class TestSocScale:
    def test_thousand_block_floorplan_end_to_end(self, tmp_path):
        """ISSUE acceptance: 1000+ blocks through the engine with a
        persisted manifest and a stable placement digest."""
        store = ArtifactStore(tmp_path)
        spec = floorplan_spec(blocks=1024, domains=6, moves=400,
                              strategies=("sstvs",), design_seed=1)
        result = run_experiment(spec, store=store)
        assert result.counts["err"] == 0
        payload = result.rows[0].value
        assert payload["blocks"] == 1024
        assert payload["crossings"] > 1000
        assert payload["signoff_ok"] in (True, False)
        assert payload["worst_slack"] == pytest.approx(
            payload["worst_slack"])  # a real float came back

        # The stored manifest reloads with the same payloads.
        reloaded = ArtifactStore(tmp_path).load(result.run_id)
        assert _payloads(reloaded) == _payloads(result)

        # And the digest is reproducible from scratch.
        again = run_experiment(
            floorplan_spec(blocks=1024, domains=6, moves=400,
                           strategies=("sstvs",), design_seed=1))
        assert again.rows[0].value["placement_digest"] == \
            payload["placement_digest"]
