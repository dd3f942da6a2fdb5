"""Tests for SoC shifter-insertion planning (no SPICE in the loop:
characterize_leakage=False keeps these fast)."""

import pytest

from repro.errors import AnalysisError
from repro.soc import (
    COMBINED_STRATEGY, CVS_STRATEGY, Crossing, DvsSchedule,
    INVERTER_STRATEGY, Module, SSTVS_STRATEGY, SSVS_STRATEGY,
    ShifterPlanner, Soc, VoltageDomain,
)


def paper_soc():
    """The paper's Figure 2/3 four-module system: 0.8/1.0/1.2/1.4 V."""
    modules = [
        Module("m08", VoltageDomain.fixed("v08", 0.8), x=0, y=0),
        Module("m10", VoltageDomain.fixed("v10", 1.0), x=200, y=0),
        Module("m12", VoltageDomain.fixed("v12", 1.2), x=0, y=200),
        Module("m14", VoltageDomain.fixed("v14", 1.4), x=200, y=200),
    ]
    crossings = [
        Crossing("m08", "m10", 4), Crossing("m10", "m08", 4),
        Crossing("m08", "m12", 2), Crossing("m12", "m14", 2),
        Crossing("m14", "m08", 2), Crossing("m10", "m14", 1),
    ]
    return Soc(modules, crossings)


def dvs_soc():
    """Two modules whose relationship flips over time."""
    a = Module("cpu", VoltageDomain("vd1", DvsSchedule(
        ((0.0, 1.2), (5.0, 0.9)))), x=0, y=0)
    b = Module("dsp", VoltageDomain.fixed("vd2", 1.0), x=300, y=0)
    return Soc([a, b], [Crossing("cpu", "dsp", 8),
                        Crossing("dsp", "cpu", 8)])


@pytest.fixture(scope="module")
def planner():
    return ShifterPlanner(paper_soc(), characterize_leakage=False)


@pytest.fixture(scope="module")
def dvs_planner():
    return ShifterPlanner(dvs_soc(), characterize_leakage=False)


class TestSocModel:
    def test_duplicate_module_names_rejected(self):
        m = Module("a", VoltageDomain.fixed("v", 1.0))
        with pytest.raises(AnalysisError):
            Soc([m, Module("a", VoltageDomain.fixed("w", 1.0))], [])

    def test_unknown_crossing_module_rejected(self):
        m = Module("a", VoltageDomain.fixed("v", 1.0))
        with pytest.raises(AnalysisError):
            Soc([m], [Crossing("a", "ghost")])

    def test_domain_pairs(self):
        pairs = paper_soc().domain_pairs()
        assert ("v08", "v10") in pairs

    def test_manhattan(self):
        """A rail runs the Manhattan distance between module centres."""
        soc = paper_soc()
        diagonal = Soc([soc.modules["m08"], soc.modules["m14"]],
                       [Crossing("m08", "m14")])
        report = ShifterPlanner(diagonal, characterize_leakage=False) \
            .plan(CVS_STRATEGY)
        assert report.supply_route_length == 400.0


class TestPlannerCosts:
    def test_cvs_needs_extra_rails(self, planner):
        report = planner.plan(CVS_STRATEGY)
        assert report.extra_supply_rails > 0
        assert report.supply_route_length > 0

    def test_single_supply_strategies_need_none(self, planner):
        for strategy in (COMBINED_STRATEGY, SSTVS_STRATEGY):
            report = planner.plan(strategy)
            assert report.extra_supply_rails == 0

    def test_combined_needs_control_wires(self, planner):
        report = planner.plan(COMBINED_STRATEGY)
        assert report.control_wires > 0

    def test_sstvs_needs_no_control(self, planner):
        report = planner.plan(SSTVS_STRATEGY)
        assert report.control_wires == 0

    def test_sstvs_minimum_wiring_area(self, planner):
        reports = planner.compare()
        sstvs = reports[SSTVS_STRATEGY]
        assert sstvs.total_wiring_area <= min(
            r.total_wiring_area for r in reports.values())

    def test_shifter_count_equals_signals(self, planner):
        report = planner.plan(SSTVS_STRATEGY)
        assert report.shifter_count == 15  # sum of crossing signals

    def test_unknown_strategy(self, planner):
        with pytest.raises(AnalysisError):
            planner.plan("osmosis")

    def test_summary_text(self, planner):
        text = planner.plan(SSTVS_STRATEGY).summary()
        assert "sstvs" in text
        assert "feasible" in text


class TestDvsFeasibility:
    def test_static_strategies_infeasible_under_dvs(self, dvs_planner):
        for strategy in (INVERTER_STRATEGY, SSVS_STRATEGY):
            report = dvs_planner.plan(strategy)
            assert not report.feasible, strategy
            assert report.infeasible_pairs

    def test_true_strategies_feasible_under_dvs(self, dvs_planner):
        for strategy in (CVS_STRATEGY, COMBINED_STRATEGY,
                         SSTVS_STRATEGY):
            assert dvs_planner.plan(strategy).feasible, strategy

    def test_inverter_feasible_for_static_downshift(self):
        a = Module("hi", VoltageDomain.fixed("v1", 1.4), x=0, y=0)
        b = Module("lo", VoltageDomain.fixed("v2", 0.8), x=100, y=0)
        soc = Soc([a, b], [Crossing("hi", "lo")])
        planner = ShifterPlanner(soc, characterize_leakage=False)
        assert planner.plan(INVERTER_STRATEGY).feasible
        # But not for the reverse direction.
        soc2 = Soc([a, b], [Crossing("lo", "hi")])
        planner2 = ShifterPlanner(soc2, characterize_leakage=False)
        assert not planner2.plan(INVERTER_STRATEGY).feasible


class TestRegistryCosting:
    """The planner's wiring costs come from registry flags, not from
    hard-coded strategy names: a spec that declares uses_vddi_rail gets
    rail routing, one that declares needs_select gets control wires."""

    def test_strategy_cells_all_registered(self):
        from repro.cells.registry import SHIFTER_STRATEGIES, get_cell
        for strategy, plan in SHIFTER_STRATEGIES.items():
            spec = get_cell(plan.cell)  # raises if unregistered
            assert spec.name == plan.cell, strategy

    def test_rail_and_select_follow_registry_flags(self, planner):
        from repro.cells.registry import SHIFTER_STRATEGIES, get_cell
        from repro.soc import STRATEGIES
        for strategy in STRATEGIES:
            spec = get_cell(SHIFTER_STRATEGIES[strategy].cell)
            report = planner.plan(strategy)
            assert (report.extra_supply_rails > 0) == \
                spec.uses_vddi_rail, strategy
            assert (report.control_wires > 0) == spec.needs_select, \
                strategy


class TestLeakageCache:
    def test_warm_plan_is_bitwise_identical_to_cold(self, tmp_path):
        """A SolveCache-backed plan replays leakage bitwise when warm.

        Cold and warm passes share one code path (worst_leakage ->
        characterize_kinds), so the only difference a warm cache may
        make is wall time — never bits.
        """
        from repro.runtime.cache import SolveCache

        def one_plan(cache):
            a = Module("hi", VoltageDomain.fixed("v1", 1.2), x=0, y=0)
            b = Module("lo", VoltageDomain.fixed("v2", 0.8),
                       x=100, y=0)
            soc = Soc([a, b], [Crossing("hi", "lo")])
            planner = ShifterPlanner(soc, cache=cache)
            return planner.plan(SSTVS_STRATEGY)

        cold_cache = SolveCache(tmp_path / "cache")
        cold = one_plan(cold_cache)
        assert cold_cache.stats.stores > 0
        warm_cache = SolveCache(tmp_path / "cache")
        warm = one_plan(warm_cache)
        assert warm_cache.stats.hits > 0
        assert warm_cache.stats.misses == 0
        assert warm.leakage == cold.leakage  # bitwise, not approx
        assert warm.leakage > 0.0


class TestFixedPlacementRouting:
    """The planner routes and counts exactly like the floorplanner's
    objective at a fixed placement."""

    def test_rail_runs_from_nearest_same_domain_source(self):
        # Two 1.0 V blocks feed one 1.2 V block; the farther one is
        # listed first, but the shared rail/control runs from the
        # nearer one.
        far = Module("far", VoltageDomain.fixed("v10", 1.0), x=600, y=0)
        near = Module("near", VoltageDomain.fixed("v10", 1.0),
                      x=200, y=0)
        dst = Module("dst", VoltageDomain.fixed("v12", 1.2), x=0, y=0)
        soc = Soc([far, near, dst], [Crossing("far", "dst"),
                                     Crossing("near", "dst")])
        planner = ShifterPlanner(soc, characterize_leakage=False)
        cvs = planner.plan(CVS_STRATEGY)
        assert cvs.extra_supply_rails == 1
        assert cvs.supply_route_length == 200.0
        combined = planner.plan(COMBINED_STRATEGY)
        assert combined.control_wires == 1
        assert combined.control_route_length == 200.0

    def test_same_domain_crossing_gets_no_shifter(self):
        a = Module("a", VoltageDomain.fixed("v08", 0.8), x=0, y=0)
        b = Module("b", VoltageDomain.fixed("v08", 0.8), x=200, y=0)
        c = Module("c", VoltageDomain.fixed("v12", 1.2), x=0, y=200)
        soc = Soc([a, b, c], [Crossing("a", "b", 3), Crossing("a", "c")])
        planner = ShifterPlanner(soc, characterize_leakage=False)
        assert planner.plan(SSTVS_STRATEGY).shifter_count == 1
        cvs = planner.plan(CVS_STRATEGY)
        assert cvs.extra_supply_rails == 1
        assert cvs.supply_route_length == 200.0
