"""BENCHMARK.json matches the harness; metric derivation and verdicts."""

from __future__ import annotations

import json

from benchmarks.perf import layers, run
from benchmarks.perf.workloads import WORKLOADS


def test_benchmark_json_matches_the_harness_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/perf/run.py"]
    assert spec["paths"] == ["benchmarks/perf"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: workload.why for name, workload in WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [row[:3] for row in layers.PER_LAYER]
    setup_bound = dict((m["name"], m["bound"])
                       for m in spec["end_to_end"])["setup_s"]
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])


def _process(spans=None, outer_s=0.0, counters=None, maxrss_kb=0,
             final=None):
    return {"spans": spans or {}, "outer_s": outer_s,
            "counters": counters or {}, "maxrss_kb": maxrss_kb,
            "final": final}


def _span(calls, total_s, self_s, durations=()):
    return {"calls": calls, "total_s": total_s, "self_s": self_s,
            "durations": list(durations)}


def test_per_layer_metrics_from_parent_and_worker_spans():
    parent = _process(
        spans={"engine.run": _span(1, 9.0, 0.5),
               "pool.parallel_map": _span(1, 8.0, 7.5),
               "cache.put": _span(4, 0.25, 0.25)},
        outer_s=9.0, counters={"assembly.base_hit": 3,
                               "assembly.base_miss": 1},
        maxrss_kb=100 * 1024,
        final={"cli_import_s": 0.5,
               "solve_stats": {"solves": 10, "iterations": 25}})
    worker = _process(
        spans={"characterize.batch": _span(2, 7.0, 1.0),
               "batch.newton": _span(3000, 6.0, 6.0, [0.002] * 3000)},
        outer_s=7.0, counters={"batch.newton.iterations": 100,
                               "batch.newton.lane_iterations": 6400},
        maxrss_kb=200 * 1024)
    metrics = layers.per_layer_metrics({1: parent, 2: worker}, 1,
                                       traced_wall_s=10.0,
                                       untraced_wall_s=8.0,
                                       store_bytes=123, moves_evaluated=0)
    assert list(metrics) == [row[0] for row in layers.PER_LAYER]
    assert metrics["engine.self_s"] == 0.5
    assert metrics["pool.wait_s"] == 7.5
    assert metrics["pool.worker_busy_s"] == 7.0
    assert metrics["pool.utilization"] == 7.0 / 20.0
    assert metrics["pool.worker_peak_rss_mb"] == 200.0
    assert metrics["cache.puts"] == 4
    assert metrics["batch.active_lanes"] == 64.0
    assert metrics["spice.iterations_per_solve"] == 2.5
    assert metrics["spice.assembly.base_hit_ratio"] == 0.75
    assert metrics["spice.newton.p50_us"] == 0.0  # no serial Newton here
    assert metrics["trace.unattributed_s"] == 10.0 - 0.5 - 9.0
    assert metrics["trace.overhead"] == 0.25


def test_result_json_has_exactly_the_contract_keys():
    result = run.RunResult(
        workload="sweep_fig8", seed=None,
        reps=[run.Rep(2.0, 1.9, 50.0, speed=2.0),
              run.Rep(3.0, 2.9, 51.0, speed=1.0),
              run.Rep(9.0, 8.9, 52.0, speed=0.5)],
        setup=[run.Rep(0.4, 0.3, 40.0, speed=0.5)], attempted=32,
        failed=0, problems=[])
    document = run.result_json([result], trace=False)
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    # Times are normalized by each process's host-speed factor; RSS is not.
    assert result.samples("wall_s") == [4.0, 3.0, 4.5]
    assert result.samples("wall_s", normalized=False) == [2.0, 3.0, 9.0]
    assert document["metrics"]["wall_s"] == {"value": 4.0, "unit": "s"}
    assert document["metrics"]["peak_rss_mb"]["value"] == 51.0
    assert document["metrics"]["setup_s"]["value"] == 0.2
    assert set(document["metrics"]) == {name for name, *_ in run.END_TO_END}
    result.problems.append("output differs")
    assert run.result_json([result], trace=False)["correct"] is False


def test_verdicts_follow_bounds_and_spread():
    parent = [10.0, 10.1, 10.2]
    assert run.verdict(parent, [8.0, 8.1, 8.2], "lower", 0.1) == "better"
    assert run.verdict(parent, [10.1, 10.2, 10.0], "lower", 0.1) == "same"
    assert run.verdict(parent, [12.0, 12.1, 12.2], "lower", 0.1) == "worse"
    assert run.verdict(parent, [12.0, 12.1, 12.2], "higher", 0.1) == \
        "better"
    noisy = [8.0, 10.0, 14.0]
    assert run.verdict(noisy, [9.0, 12.0, 15.0], "lower", 0.1) == \
        "unresolved"
