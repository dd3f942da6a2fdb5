"""Bitwise pin of every :class:`PlanReport` field.

Four fixed-placement SoCs x the five insertion strategies, planned
with ``characterize_leakage=False``: the paper's four-island system
and the two-module DVS pair from ``test_planner.py``, the SoC of
``benchmarks/bench_soc_routing.py`` and the SoC of
``examples/dvs_soc_planner.py``. Floats are pinned as ``float.hex``,
so any change in how the planner assigns, routes or prices shifters
shows up as a diff, not as a tolerance miss.

Regenerate (only after an intended behaviour change) with::

    PYTHONPATH=src python tests/soc/test_planner_snapshot.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.soc import (
    Crossing, DvsSchedule, Module, ShifterPlanner, Soc, VoltageDomain,
)

SNAPSHOT_PATH = Path(__file__).parent / "planner_snapshot.json"
STRATEGIES = ("sstvs", "combined", "cvs", "inverter", "ssvs")


def paper_soc() -> Soc:
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


def dvs_soc() -> Soc:
    a = Module("cpu", VoltageDomain("vd1", DvsSchedule(
        ((0.0, 1.2), (5.0, 0.9)))), x=0, y=0)
    b = Module("dsp", VoltageDomain.fixed("vd2", 1.0), x=300, y=0)
    return Soc([a, b], [Crossing("cpu", "dsp", 8),
                        Crossing("dsp", "cpu", 8)])


def bench_soc() -> Soc:
    modules = [
        Module("m08", VoltageDomain("v08", DvsSchedule(
            ((0.0, 0.8), (10.0, 1.1), (20.0, 0.8)))), x=0, y=0),
        Module("m10", VoltageDomain.fixed("v10", 1.0), x=300, y=0),
        Module("m12", VoltageDomain.fixed("v12", 1.2), x=0, y=300),
        Module("m14", VoltageDomain.fixed("v14", 1.4), x=300, y=300),
    ]
    crossings = [
        Crossing("m08", "m10", 8), Crossing("m10", "m08", 8),
        Crossing("m08", "m12", 4), Crossing("m12", "m14", 4),
        Crossing("m14", "m08", 4), Crossing("m10", "m14", 2),
        Crossing("m12", "m08", 4),
    ]
    return Soc(modules, crossings)


def example_soc() -> Soc:
    cpu = Module("cpu", VoltageDomain("vcpu", DvsSchedule(
        ((0.0, 1.2), (4.0, 0.8), (9.0, 1.4), (14.0, 1.0)))),
        x=0, y=0, width=400, height=400)
    dsp = Module("dsp", VoltageDomain.fixed("vdsp", 1.0),
                 x=500, y=0, width=300, height=300)
    io_block = Module("io", VoltageDomain.fixed("vio", 1.4),
                      x=500, y=400, width=200, height=200)
    always_on = Module("aon", VoltageDomain.fixed("vaon", 0.8),
                       x=0, y=500, width=200, height=150)
    crossings = [
        Crossing("cpu", "dsp", 16), Crossing("dsp", "cpu", 16),
        Crossing("cpu", "io", 8), Crossing("io", "cpu", 8),
        Crossing("aon", "cpu", 4), Crossing("cpu", "aon", 4),
        Crossing("dsp", "io", 2),
    ]
    return Soc([cpu, dsp, io_block, always_on], crossings)


SOCS = {"paper": paper_soc, "dvs": dvs_soc, "bench": bench_soc,
        "example": example_soc}


def _pin(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_pin(v) for v in value]
    return value


def snapshot(soc_name: str, strategy: str) -> dict:
    planner = ShifterPlanner(SOCS[soc_name](), characterize_leakage=False)
    report = planner.plan(strategy)
    fields = {f.name: _pin(getattr(report, f.name))
              for f in dataclasses.fields(report)}
    fields["total_wiring_area"] = _pin(report.total_wiring_area)
    fields["summary"] = report.summary()
    return fields


@pytest.fixture(scope="module")
def pinned():
    with open(SNAPSHOT_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("soc_name", tuple(SOCS))
def test_plan_report_pinned_bitwise(pinned, soc_name, strategy):
    assert snapshot(soc_name, strategy) == pinned[soc_name][strategy]


if __name__ == "__main__":
    data = {name: {strategy: snapshot(name, strategy)
                   for strategy in STRATEGIES} for name in SOCS}
    SNAPSHOT_PATH.write_text(json.dumps(data, indent=1, sort_keys=True)
                             + "\n")
    print(f"wrote {SNAPSHOT_PATH}")
