"""All four workloads end to end at toy sizes, traced; no timing asserts.

The toy variants keep each workload's command and oracle shape but
shrink the work, so the whole module runs in well under 90 s.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from benchmarks.perf import layers, run
from benchmarks.perf.workloads import WORKLOADS

TOY = {
    "mc_sharded": dict(
        argv=lambda seed, out, cache: [
            "mc", "sstvs", "--runs", "3", "--backend", "batched",
            "--workers", "2", "--seed", str(seed), "--cache", str(cache),
            "--out", str(out)],
        points=3),
    "sweep_fig8": dict(
        argv=lambda seed, out, cache: [
            "sweep", "sstvs", "--step", "0.6", "--out", str(out)],
        points=4),
    "leaderboard": dict(
        argv=lambda seed, out, cache: [
            "bench", "--leaderboard", "--cells", "sstvs", "--nodes", "lv22",
            "--corners", "tt", "--out", str(out / "LEADERBOARD.json")],
        points=2),
    "floorplan_1024": dict(
        argv=lambda seed, out, cache: [
            "floorplan", "--blocks", "12", "--moves", "40", "--seed",
            str(seed), "--out", str(out)],
        points=3),
}


@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_workload_runs_checks_and_traces(name):
    workload = dataclasses.replace(WORKLOADS[name], **TOY[name])
    result = run.measure(workload, seed=3, seconds=0, trace=True)
    assert result.problems == []
    assert len(result.reps) == run.MIN_REPS
    assert len(result.setup) == run.SETUP_PROBES
    assert result.attempted == run.MIN_REPS * workload.points
    assert result.failed == 0
    assert result.seed == (None if workload.default_seed is None else 3)
    metrics = result.per_layer
    assert list(metrics) == [row[0] for row in layers.PER_LAYER]
    assert metrics["cli.import_s"] > 0
    spice = name != "floorplan_1024"
    assert (metrics["testbench.builds"] > 0) == spice
    assert (metrics["batch.iterations"] > 0) == (name == "mc_sharded")
    assert (metrics["engine.self_s"] > 0) == (name != "leaderboard")
    assert (metrics["leaderboard.write_s"] > 0) == (name == "leaderboard")
    if name == "floorplan_1024":
        assert metrics["floorplan.moves_evaluated"] == 3 * 41
    if name == "mc_sharded":
        assert metrics["cache.puts"] == 3
    document = run.result_json([result], trace=True)
    assert set(document["metrics"]) == {row[0] for row in layers.PER_LAYER}


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "sweep_fig8", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
    assert "no repro source tree" in proc.stderr
