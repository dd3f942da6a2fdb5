"""Which public functions the traced pass times, and what they report.

:data:`TARGETS` names one span per layer boundary; every target is a
public function or method of ``repro``. :data:`PER_LAYER` lists the
per-layer metrics with the end-to-end metric and workload each should
move — the map a change claiming a speed-up states before it is
measured. :func:`per_layer_metrics` derives them from the merged spans
and the program's own telemetry counters.
"""

from __future__ import annotations

from benchmarks.perf.spans import PERCENTILE_MIN_CALLS, combine, percentile

#: Pool width of the sharded workload (the host's nproc).
POOL_WIDTH = 2

#: (module, qualname, span) for every timed call into the program.
TARGETS = (
    ("repro.runtime.experiment.engine", "run_experiment", "engine.run"),
    ("repro.runtime.experiment.store", "ArtifactStore.write", "store.write"),
    ("repro.runtime.cache", "experiment_point_key", "cache.key"),
    ("repro.runtime.cache", "SolveCache.get", "cache.get"),
    ("repro.runtime.cache", "SolveCache.put", "cache.put"),
    ("repro.runtime.parallel", "parallel_map", "pool.parallel_map"),
    ("repro.core.characterize", "characterize", "characterize.full"),
    ("repro.core.characterize", "characterize_batch", "characterize.batch"),
    ("repro.core.characterize", "quick_delays", "characterize.quick"),
    ("repro.core.testbench", "build_testbench", "testbench.build"),
    ("repro.pdk.variation", "VariedPdk.mosfet", "pdk.varied"),
    ("repro.pdk.corners", "CornerPdk.mosfet", "pdk.corner"),
    ("repro.spice.transient", "Transient.run", "spice.transient"),
    ("repro.spice.newton", "newton_solve", "spice.newton"),
    ("repro.spice.newton", "solve_dc_report", "spice.dc"),
    ("repro.spice.waveform", "propagation_delay", "spice.waveform"),
    ("repro.spice.batch", "LaneGroup.__init__", "batch.group_build"),
    ("repro.spice.batch", "LaneGroup.newton", "batch.newton"),
    ("repro.spice.batch", "LaneGroup.solve_dc", "batch.dc"),
    ("repro.spice.batch", "BatchTransient.run", "batch.transient"),
    ("repro.floorplan.design", "generate_design", "floorplan.generate"),
    ("repro.floorplan.assign", "assign_shifters", "floorplan.assign"),
    ("repro.floorplan.anneal", "anneal_floorplan", "floorplan.anneal"),
    ("repro.floorplan.signoff", "build_crossing_netlist",
     "floorplan.netlist"),
    ("repro.floorplan.signoff", "build_timing_library", "floorplan.library"),
    ("repro.floorplan.signoff", "signoff_floorplan", "floorplan.signoff"),
    ("repro.analysis.leaderboard", "build_leaderboard", "leaderboard.build"),
    ("repro.analysis.leaderboard", "write_leaderboard", "leaderboard.write"),
)

_MC, _SWEEP, _BOARD, _FLOOR = ("mc_sharded", "sweep_fig8", "leaderboard",
                               "floorplan_1024")
_ENGINE = f"wall_s on {_SWEEP}, {_MC} and {_FLOOR}"
_SERIAL = f"wall_s, cpu_s on {_SWEEP} and {_BOARD}; none on {_FLOOR}"
_BATCH = f"wall_s, cpu_s on {_MC}; zero elsewhere"
_FLOORPLAN = f"wall_s on {_FLOOR} only"

#: (name, unit, better, what it should move) for every per-layer metric.
PER_LAYER = (
    ("cli.import_s", "s", "lower", "setup_s on every workload"),
    ("engine.self_s", "s", "lower", _ENGINE),
    ("store.write_s", "s", "lower", _ENGINE),
    ("store.bytes", "bytes", "lower", _ENGINE),
    ("cache.key_s", "s", "lower", f"wall_s on {_MC} only"),
    ("cache.put_s", "s", "lower", f"wall_s on {_MC} only"),
    ("cache.puts", "count", "lower", f"wall_s on {_MC} only"),
    ("pool.wait_s", "s", "lower", f"wall_s on {_MC}"),
    ("pool.worker_busy_s", "s", "lower", f"wall_s, cpu_s on {_MC}"),
    ("pool.utilization", "ratio", "higher", f"wall_s on {_MC}"),
    ("pool.worker_peak_rss_mb", "MB", "lower", f"peak_rss_mb on {_MC}"),
    ("characterize.self_s", "s", "lower", f"wall_s on {_BOARD}"),
    ("characterize.batch_self_s", "s", "lower", f"wall_s on {_MC}"),
    ("characterize.quick_self_s", "s", "lower", f"wall_s on {_SWEEP}"),
    ("testbench.builds", "count", "lower", "wall_s on SPICE workloads"),
    ("testbench.build_s", "s", "lower", "wall_s on SPICE workloads"),
    ("pdk.varied_s", "s", "lower", f"wall_s on {_MC}"),
    ("pdk.corner_s", "s", "lower", f"wall_s on {_BOARD}"),
    ("spice.transient.self_s", "s", "lower", _SERIAL),
    ("spice.newton.total_s", "s", "lower", _SERIAL),
    ("spice.newton.p50_us", "us", "lower", _SERIAL),
    ("spice.newton.p99_us", "us", "lower", _SERIAL),
    ("spice.dc.total_s", "s", "lower", _SERIAL),
    ("spice.waveform_s", "s", "lower", _SERIAL),
    ("spice.solves", "count", "lower", _SERIAL),
    ("spice.newton_iterations", "count", "lower", _SERIAL),
    ("spice.iterations_per_solve", "ratio", "lower", _SERIAL),
    ("spice.tran.steps_accepted", "count", "lower", _SERIAL),
    ("spice.tran.steps_rejected", "count", "lower", _SERIAL),
    ("spice.assembly.base_hit_ratio", "ratio", "higher", _SERIAL),
    ("batch.group_build_s", "s", "lower", _BATCH),
    ("batch.transient.self_s", "s", "lower", _BATCH),
    ("batch.newton.total_s", "s", "lower", _BATCH),
    ("batch.dc.total_s", "s", "lower", _BATCH),
    ("batch.iterations", "count", "lower", _BATCH),
    ("batch.lane_iterations", "count", "lower", _BATCH),
    ("batch.active_lanes", "lanes", "higher", _BATCH),
    ("batch.dc_evicted", "count", "lower", _BATCH),
    ("floorplan.generate_s", "s", "lower", _FLOORPLAN),
    ("floorplan.assign_s", "s", "lower", _FLOORPLAN),
    ("floorplan.anneal_s", "s", "lower", _FLOORPLAN),
    ("floorplan.moves_evaluated", "count", "higher", _FLOORPLAN),
    ("floorplan.moves_per_s", "1/s", "higher", _FLOORPLAN),
    ("floorplan.netlist_s", "s", "lower", _FLOORPLAN),
    ("floorplan.library_s", "s", "lower", _FLOORPLAN),
    ("floorplan.signoff_s", "s", "lower", _FLOORPLAN),
    ("leaderboard.self_s", "s", "lower", f"wall_s on {_BOARD}"),
    ("leaderboard.write_s", "s", "lower", f"wall_s on {_BOARD}"),
    ("trace.wall_s", "s", "lower", "nothing; the traced run's wall time"),
    ("trace.unattributed_s", "s", "lower", "nothing; wall_s not in a span"),
    ("trace.overhead", "ratio", "lower", "nothing; traced/untraced - 1"),
)

#: Deterministic work counters: identical on every traced run of a
#: workload at one seed, pinned in reference.json at the default seed.
PINNED_COUNTERS = ("spice.solves", "spice.newton_iterations",
                   "batch.iterations", "batch.lane_iterations",
                   "testbench.builds", "cache.puts",
                   "floorplan.moves_evaluated")


def per_layer_metrics(processes: dict, parent_pid: int,
                      traced_wall_s: float, untraced_wall_s: float,
                      store_bytes: int, moves_evaluated: int) -> dict:
    """Every :data:`PER_LAYER` metric of one traced run.

    Args:
        processes: :func:`~benchmarks.perf.spans.merge_span_files`
            output; the entry for ``parent_pid`` carries the ``final``
            record (CLI import time and the solve counters).
        traced_wall_s / untraced_wall_s: spawn-to-exit wall time of the
            traced run and the median of the untraced runs.
        store_bytes: bytes the artifact store wrote.
        moves_evaluated: annealer moves read from the floorplan rows.
    """
    parent = processes[parent_pid]
    final = parent["final"]
    workers = [proc for pid, proc in processes.items() if pid != parent_pid]
    spans = combine(processes)
    counters: dict = {}
    for proc in processes.values():
        for name, value in proc["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def total(span):
        return spans.get(span, {}).get("total_s", 0.0)

    def self_time(span):
        return spans.get(span, {}).get("self_s", 0.0)

    def calls(span):
        return spans.get(span, {}).get("calls", 0)

    def newton_us(fraction):
        entry = spans.get("spice.newton")
        if entry is None or entry["calls"] < PERCENTILE_MIN_CALLS:
            return 0.0
        return percentile(sorted(entry["durations"]), fraction) * 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    solves = final["solve_stats"]["solves"]
    iterations = final["solve_stats"]["iterations"]
    busy = sum(proc["outer_s"] for proc in workers)
    hits = counters.get("assembly.base_hit", 0)
    misses = counters.get("assembly.base_miss", 0)
    batch_iterations = counters.get("batch.newton.iterations", 0)
    lane_iterations = counters.get("batch.newton.lane_iterations", 0)
    attributed = final["cli_import_s"] + parent["outer_s"]
    return {
        "cli.import_s": final["cli_import_s"],
        "engine.self_s": self_time("engine.run"),
        "store.write_s": total("store.write"),
        "store.bytes": store_bytes,
        "cache.key_s": total("cache.key"),
        "cache.put_s": total("cache.put"),
        "cache.puts": calls("cache.put"),
        "pool.wait_s": parent["spans"].get("pool.parallel_map", {})
                                      .get("self_s", 0.0),
        "pool.worker_busy_s": busy,
        "pool.utilization": ratio(busy, traced_wall_s * POOL_WIDTH),
        "pool.worker_peak_rss_mb": max(
            (proc["maxrss_kb"] for proc in workers), default=0) / 1024.0,
        "characterize.self_s": self_time("characterize.full"),
        "characterize.batch_self_s": self_time("characterize.batch"),
        "characterize.quick_self_s": self_time("characterize.quick"),
        "testbench.builds": calls("testbench.build"),
        "testbench.build_s": total("testbench.build"),
        "pdk.varied_s": total("pdk.varied"),
        "pdk.corner_s": total("pdk.corner"),
        "spice.transient.self_s": self_time("spice.transient"),
        "spice.newton.total_s": total("spice.newton"),
        "spice.newton.p50_us": newton_us(0.50),
        "spice.newton.p99_us": newton_us(0.99),
        "spice.dc.total_s": total("spice.dc"),
        "spice.waveform_s": total("spice.waveform"),
        "spice.solves": solves,
        "spice.newton_iterations": iterations,
        "spice.iterations_per_solve": ratio(iterations, solves),
        "spice.tran.steps_accepted": counters.get("tran.steps_accepted", 0),
        "spice.tran.steps_rejected": (
            counters.get("tran.steps_rejected_dv", 0)
            + counters.get("tran.newton_failures", 0)),
        "spice.assembly.base_hit_ratio": ratio(hits, hits + misses),
        "batch.group_build_s": total("batch.group_build"),
        "batch.transient.self_s": self_time("batch.transient"),
        "batch.newton.total_s": total("batch.newton"),
        "batch.dc.total_s": total("batch.dc"),
        "batch.iterations": batch_iterations,
        "batch.lane_iterations": lane_iterations,
        "batch.active_lanes": ratio(lane_iterations, batch_iterations),
        "batch.dc_evicted": counters.get("batch.dc.evicted", 0),
        "floorplan.generate_s": total("floorplan.generate"),
        "floorplan.assign_s": total("floorplan.assign"),
        "floorplan.anneal_s": total("floorplan.anneal"),
        "floorplan.moves_evaluated": moves_evaluated,
        "floorplan.moves_per_s": ratio(moves_evaluated,
                                       total("floorplan.anneal")),
        "floorplan.netlist_s": total("floorplan.netlist"),
        "floorplan.library_s": total("floorplan.library"),
        "floorplan.signoff_s": total("floorplan.signoff"),
        "leaderboard.self_s": self_time("leaderboard.build"),
        "leaderboard.write_s": total("leaderboard.write"),
        "trace.wall_s": traced_wall_s,
        "trace.unattributed_s": traced_wall_s - attributed,
        "trace.overhead": traced_wall_s / untraced_wall_s - 1.0,
    }
