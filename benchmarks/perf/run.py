"""Repository benchmark: four campaigns timed end to end, checked bitwise.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N]
                                   [--seconds S] [--trace [0|1]]
    python3 benchmarks/perf/run.py record --out FILE
    python3 benchmarks/perf/run.py compare A[#SET] B[#SET]
    python3 benchmarks/perf/run.py pin

``python -m benchmarks.perf`` is the same program. A run repeats the
workload's CLI command as a closed loop (the next process starts when
the previous one exits) for ``--seconds``, at least once, and reports
medians of the spawn-to-exit times, normalized by the host's speed (see
:class:`SpeedProbe`); ``setup_s`` is the median of five set-up probes.
Every output is checked against reference.json (at the pinned seed) and
against the other repeats. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace`` the run adds one traced pass and reports
the per-layer metrics instead. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: One BLAS thread in every measured process, and in this one, whose
#: speed probe would otherwise leave OpenBLAS threads spinning on the
#: vCPUs the measured processes need.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf import layers  # noqa: E402
from benchmarks.perf.spans import (  # noqa: E402
    combine, merge_span_files, span_table,
)
from benchmarks.perf.workloads import (  # noqa: E402
    WORKLOADS, BOARD_CORNERS, BOARD_NODE, OutputError, digest,
    read_run_rows,
)

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
#: Scratch space inside the checkout; listed in .gitignore.
WORK = ROOT / ".perfbench"

#: (name, unit, better, bound) of every end-to-end metric. The bounds on
#: the times are as wide as the run-to-run spread on a shared 2-vCPU host
#: requires: over ten seeds, 25-second runs spread by up to 14 %
#: normalized and 32 % as measured (quartile distance over median).
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)
DEFAULT_SECONDS = 25
#: Another repeat starts only while it is expected to end within the
#: run's seconds, so a slow host gets fewer repeats, not a longer run.
MIN_REPS = 1
SETUP_PROBES = 5
#: Samples the serial backend recomputes on every mc_sharded run.
ORACLE_POINTS = 2
#: A baseline (``record``): sets of benchmark runs per workload.
RECORD_SETS = 2
RECORD_RUNS = 3
#: Speed probe (see :class:`SpeedProbe`): one sample every
#: PROBE_INTERVAL_S, each after PROBE_WARMUP_S of the same loop.
#: PROBE_REF_S, about a typical sample on a 2-vCPU Intel Xeon VM, only
#: sets the unit of the normalized times.
PROBE_INTERVAL_S = 0.1
PROBE_WARMUP_S = 0.004
PROBE_REF_S = 0.001
_PROBE_RNG = np.random.default_rng(0)
_PROBE_MATRIX = _PROBE_RNG.standard_normal((13, 13)) + 5.0 * np.eye(13)
_PROBE_RHS = _PROBE_RNG.standard_normal(13)


class BenchError(Exception):
    """The benchmark cannot run here."""


def probe_loop() -> float:
    """Thread CPU seconds for the program's two kinds of work:
    interpreter arithmetic, and small ufuncs plus 13x13 LAPACK solves."""
    started = time.thread_time()
    total = 0.0
    for i in range(5000):
        total += (i * 1.0000001) % 7.0
    for _ in range(30):
        x = np.linalg.solve(_PROBE_MATRIX, _PROBE_RHS)
        total += float(np.exp(np.minimum(x, 1.0))[0])
    return time.thread_time() - started


def probe_sample() -> float:
    """One :func:`probe_loop` on a warmed-up vCPU."""
    warm_until = time.perf_counter() + PROBE_WARMUP_S
    while time.perf_counter() < warm_until:
        probe_loop()
    return probe_loop()


class SpeedProbe(threading.Thread):
    """Samples the host's speed while a measured process runs.

    The host is a shared VM whose speed changes with other tenants'
    load, by up to 1.7x for seconds to minutes at a time, on both vCPUs.
    A sample is timed in thread CPU time, so the probe waiting for a
    vCPU behind the measured processes does not count, and after a
    warm-up, so waking an idle vCPU does not count either; what is left
    is how fast the host executes a fixed loop. Run back to back, the
    two-worker mc workload and the serial ones read the same factor
    within 3 %. About 5 % of one vCPU.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list = []
        self.done = threading.Event()

    def run(self) -> None:
        while True:
            self.samples.append(probe_sample())
            if self.done.wait(PROBE_INTERVAL_S):
                return

    def finish(self) -> float:
        """Stop; returns the speed factor PROBE_REF_S / median sample."""
        self.done.set()
        self.join()
        return PROBE_REF_S / statistics.median(self.samples)


@dataclass
class Rep:
    """One process tree, spawn to exit; CPU and RSS include reaped
    descendants (the pool workers). ``speed`` is the host-speed factor
    (PROBE_REF_S / probe sample) while it ran."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    speed: float = 1.0


@dataclass
class RunResult:
    workload: str
    seed: int | None
    reps: list
    setup: list
    attempted: int
    failed: int
    problems: list
    digest: str | None = None
    pins: dict = field(default_factory=dict)
    per_layer: dict | None = None
    spans: list = field(default_factory=list)

    def samples(self, metric: str, normalized: bool = True) -> list:
        """Per-process values; times are multiplied by the host-speed
        factor unless ``normalized`` is false."""
        reps = self.setup if metric == "setup_s" else self.reps
        value = "wall_s" if metric == "setup_s" else metric
        scale = normalized and metric != "peak_rss_mb"
        return [getattr(rep, value) * (rep.speed if scale else 1.0)
                for rep in reps]

    def metrics(self) -> dict:
        return {name: statistics.median(self.samples(name))
                for name, *_ in END_TO_END}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def spawn(args, cwd: Path, log_path: Path) -> tuple[Rep, int]:
    """Run ``python args...`` to completion; returns (Rep, exit code)."""
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd,
                                env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        probe = SpeedProbe()
        probe.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            wall_s = time.perf_counter() - started
            speed = probe.finish()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (Rep(wall_s=wall_s, cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024.0, speed=speed),
            proc.returncode)


def log_tail(path: Path, lines: int = 6) -> str:
    text = path.read_text(errors="replace").replace("\r", "\n")
    return " | ".join(line for line in text.splitlines()[-lines:]
                      if line.strip())


def preflight() -> None:
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        raise BenchError(f"no repro source tree under {ROOT / 'src'}")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_once(workload, seed, rep_dir: Path, spans_dir: Path | None = None):
    """One CLI process on fresh --out/--cache; returns (Rep, Output or
    None, problem or None)."""
    out, cache = rep_dir / "out", rep_dir / "cache"
    out.mkdir(parents=True)
    argv = workload.argv(seed, out, cache)
    if spans_dir is None:
        command = ["-m", "repro", *argv]
    else:
        command = ["-m", "benchmarks.perf.traced_child", str(spans_dir),
                   *argv]
    log = rep_dir / "cli.log"
    rep, code = spawn(command, rep_dir, log)
    # mc and sweep exit 1 when the yield is below 100 %; only a missing
    # or incomplete artefact, or a traceback, is a crash.
    problem = None
    output = None
    if "Traceback (most recent call last)" in log.read_text(
            errors="replace"):
        problem = f"exit {code}: {log_tail(log)}"
    else:
        try:
            output = workload.read(out, workload.points)
        except (OutputError, OSError, ValueError, KeyError) as exc:
            problem = f"exit {code}: {exc}: {log_tail(log)}"
    return rep, output, problem


def measure_setup(workload, seed, run_dir: Path) -> list:
    argv = workload.argv(seed, run_dir / "probe-out", run_dir / "probe-cache")
    samples = []
    for _ in range(SETUP_PROBES):
        rep, code = spawn(["-m", "benchmarks.perf.setup_probe", *argv],
                          run_dir, run_dir / "probe.log")
        if code != 0:
            raise BenchError(f"set-up probe failed: "
                             f"{log_tail(run_dir / 'probe.log')}")
        samples.append(rep)
    return samples


def oracle_rows(workload, seed, points: int, oracle_dir: Path) -> list:
    """Rows of the workload's first ``points`` on the independent
    backend."""
    out = oracle_dir / "out"
    out.mkdir(parents=True)
    spawn(["-m", "repro", *workload.prefix_oracle(seed, out, points)],
          oracle_dir, oracle_dir / "cli.log")
    return read_run_rows(out, points)[1]


def check_prefix(workload, seed, output, run_dir: Path) -> str | None:
    """Recompute the first samples on the independent backend."""
    try:
        rows = oracle_rows(workload, seed, ORACLE_POINTS, run_dir / "oracle")
    except (OutputError, OSError, ValueError) as exc:
        return f"prefix oracle did not run: {exc}"
    if digest(rows) != digest(output.values[:ORACLE_POINTS]):
        return (f"first {ORACLE_POINTS} samples differ from the "
                f"independent backend")
    return None


def measure(workload, seed=None, seconds=DEFAULT_SECONDS, trace=False,
            reference=None) -> RunResult:
    """Run one workload for ``seconds`` (at least MIN_REPS times)."""
    preflight()
    if workload.default_seed is None:
        seed = None
    elif seed is None:
        seed = workload.default_seed
    reference = (reference or {}).get(workload.name)
    pinned = reference is not None and reference.get("seed") == seed
    run_dir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = RunResult(workload=workload.name, seed=seed, reps=[],
                           setup=measure_setup(workload, seed, run_dir),
                           attempted=0, failed=0, problems=[])
        outputs = []
        started = time.perf_counter()
        while (len(result.reps) < MIN_REPS
               or (time.perf_counter() - started
                   + max(rep.wall_s for rep in result.reps)) <= seconds):
            rep_dir = run_dir / f"rep{len(result.reps)}"
            rep, output, problem = run_once(workload, seed, rep_dir)
            shutil.rmtree(rep_dir)
            result.reps.append(rep)
            result.attempted += workload.points
            if output is None:
                result.failed += workload.points
                result.problems.append(problem)
                continue
            result.failed += output.failed
            outputs.append(output)
        if outputs:
            first = outputs[0]
            result.digest, result.pins = first.digest, first.pins
            if len({output.digest for output in outputs}) > 1:
                result.problems.append("repeats produced different outputs")
            if pinned and (first.digest != reference["digest"]
                           or first.pins != reference["pins"]):
                result.problems.append(
                    f"output differs from reference.json at seed {seed}")
            if workload.prefix_oracle is not None:
                problem = check_prefix(workload, seed, first, run_dir)
                if problem:
                    result.problems.append(problem)
        if trace and outputs:
            traced(workload, seed, run_dir, result,
                   reference if pinned else None)
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def traced(workload, seed, run_dir: Path, result: RunResult,
           reference: dict | None) -> None:
    """The separate traced pass; fills ``result.per_layer``/``spans``."""
    rep_dir = run_dir / "traced"
    spans_dir = rep_dir / "spans"
    rep, output, problem = run_once(workload, seed, rep_dir, spans_dir)
    if output is None:
        result.problems.append(f"traced run: {problem}")
        return
    if output.digest != result.digest:
        result.problems.append("tracing changed the output")
    processes = merge_span_files(spans_dir)
    parent_pid = next(pid for pid, proc in processes.items()
                      if proc["final"] is not None)
    # The overhead compares normalized walls; everything else in the
    # traced run is as measured.
    untraced = statistics.median(result.samples("wall_s"))
    result.per_layer = layers.per_layer_metrics(
        processes, parent_pid, rep.wall_s, untraced / rep.speed,
        output.store_bytes, output.moves_evaluated)
    result.spans = span_table(combine(processes))
    if reference is not None:
        for name in layers.PINNED_COUNTERS:
            if result.per_layer[name] != reference["counters"][name]:
                result.problems.append(
                    f"{name} = {result.per_layer[name]}, pinned "
                    f"{reference['counters'][name]}")
    report = {"workload": workload.name, "seed": seed,
              "per_layer": result.per_layer,
              "spans": [dict(zip(("name", "calls", "total_s", "self_s",
                                  "p50_s", "p99_s"), row))
                        for row in result.spans]}
    (WORK / f"trace-{workload.name}.json").write_text(
        json.dumps(report, indent=1) + "\n")


def render(result: RunResult) -> str:
    lines = [f"{result.workload}: {len(result.reps)} repeats, seed "
             f"{result.seed}, "
             + ("correct" if not result.problems else "INCORRECT")]
    lines += [f"  problem: {problem}" for problem in result.problems]
    lines.append(f"  {'metric':<12s} {'median':>10s} {'q1':>10s} "
                 f"{'q3':>10s} {'n':>3s}  {'unit':<4s} {'as measured':>11s}")
    for name, unit, _, _ in END_TO_END:
        values = result.samples(name)
        q1, q3 = quartiles(values)
        raw = statistics.median(result.samples(name, normalized=False))
        lines.append(f"  {name:<12s} {statistics.median(values):>10.4f} "
                     f"{q1:>10.4f} {q3:>10.4f} {len(values):>3d}  "
                     f"{unit:<4s} {raw:>11.4f}")
    lines.append(f"  attempted {result.attempted}, failed {result.failed} "
                 f"(failed_frac {result.failed / result.attempted:.4f})")
    if result.per_layer is not None:
        lines.append(f"  {'span':<24s} {'calls':>8s} {'total_s':>9s} "
                     f"{'self_s':>9s} {'p50_us':>8s} {'p99_us':>8s}")
        for name, calls, total, self_s, p50, p99 in result.spans:
            pct = "" if p50 is None else f"{p50 * 1e6:>8.1f} {p99 * 1e6:>8.1f}"
            lines.append(f"  {name:<24s} {calls:>8d} {total:>9.3f} "
                         f"{self_s:>9.3f} {pct}")
        wall = result.per_layer["trace.wall_s"]
        share = 1.0 - result.per_layer["trace.unattributed_s"] / wall
        lines.append(f"  traced wall {wall:.3f} s, {share:.1%} in named "
                     f"spans, overhead "
                     f"{result.per_layer['trace.overhead']:+.1%}")
    return "\n".join(lines)


def result_json(results: list, trace: bool) -> dict:
    """The contract's last line; metric names get a workload prefix
    only when more than one workload ran."""
    metrics = {}
    units = ({name: unit for name, unit, *_ in layers.PER_LAYER} if trace
             else {name: unit for name, unit, *_ in END_TO_END})
    for result in results:
        prefix = f"{result.workload}." if len(results) > 1 else ""
        values = (result.per_layer or {}) if trace else result.metrics()
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    return {"correct": all(not r.problems for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": metrics}


def cmd_run(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for mc --seed and floorplan --seed "
                             "(default: 20080310 and 0, the pinned seeds)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced pass; report per-layer metrics")
    args = parser.parse_args(argv)
    reference = load_reference()
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds,
                         bool(args.trace), reference)
        print(render(result), flush=True)
        results.append(result)
    document = result_json(results, bool(args.trace))
    print(json.dumps(document))
    return 0 if document["correct"] else 1


def machine_stamp() -> dict:
    code = ("import json; from repro.analysis.bench import "
            "machine_calibration; print(json.dumps(machine_calibration()))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def cmd_record(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py record",
        description=f"record {RECORD_SETS} sets of {RECORD_RUNS} runs of "
                    f"every workload (a baseline)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    reference = load_reference()
    document = {"machine_calibration": machine_stamp(),
                "seconds": DEFAULT_SECONDS, "sets": []}
    for _ in range(RECORD_SETS):
        runs: dict = {name: [] for name in WORKLOADS}
        for _ in range(RECORD_RUNS):
            for name, workload in WORKLOADS.items():
                result = measure(workload, reference=reference)
                print(render(result), flush=True)
                if result.problems:
                    raise BenchError(f"{name}: {result.problems}")
                runs[name].append(result.metrics())
        document["sets"].append(runs)
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


def verdict(a: list, b: list, better: str, bound: float) -> str:
    """better / same / worse / unresolved for change runs ``b`` against
    parent runs ``a``.

    Better needs nine tenths of the run pairs won and medians further
    apart than A's quartile spread; a spread wider than the bound is
    unresolved unless every B run beats every A run; worse is a median
    worse by more than the bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1_a, q3_a = quartiles(a)
    q1_b, q3_b = quartiles(b)
    wins = sum(1 for x in a for y in b if sign * (y - x) < 0)
    pairs = len(a) * len(b)
    if wins >= 0.9 * pairs and abs(med_b - med_a) > q3_a - q1_a:
        return "better"
    if wins == pairs:
        return "same"
    spread = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
    if spread > bound:
        return "unresolved"
    if sign * (med_b - med_a) / med_a > bound:
        return "worse"
    return "same"


def load_set(spec: str) -> dict:
    path, _, index = spec.partition("#")
    return json.loads(Path(path).read_text())["sets"][int(index or 0)]


def cmd_compare(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="compare change runs B against parent runs A")
    parser.add_argument("a", help="parent record file, optionally #SET")
    parser.add_argument("b", help="change record file, optionally #SET")
    args = parser.parse_args(argv)
    set_a, set_b = load_set(args.a), load_set(args.b)
    print(f"{'workload':<16s} {'metric':<12s} {'A median':>10s} "
          f"{'B median':>10s} {'change':>8s}  verdict")
    worse = False
    for name in WORKLOADS:
        for metric, _, better, bound in END_TO_END:
            a = [run[metric] for run in set_a[name]]
            b = [run[metric] for run in set_b[name]]
            result = verdict(a, b, better, bound)
            worse |= result == "worse"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{name:<16s} {metric:<12s} {med_a:>10.4f} "
                  f"{med_b:>10.4f} {(med_b - med_a) / med_a:>+8.1%}  "
                  f"{result}")
    return 1 if worse else 0


def cmd_pin(argv) -> int:
    """Write reference.json from the current code at the default seeds.

    Also verifies, once, that the full mc_sharded output equals the
    serial backend's (the 0-ULP contract) and that the leaderboard
    workload equals the committed LEADERBOARD.json entries.
    """
    argparse.ArgumentParser(prog="run.py pin",
                            description=cmd_pin.__doc__).parse_args(argv)
    reference = {}
    for name, workload in WORKLOADS.items():
        result = measure(workload, seconds=0, trace=True)
        print(render(result), flush=True)
        if result.problems:
            raise BenchError(f"{name}: {result.problems}")
        if workload.prefix_oracle is not None:
            check_full_oracle(workload, result)
        if name == "leaderboard":
            check_committed_leaderboard(result)
        reference[name] = {
            "seed": result.seed, "digest": result.digest,
            "pins": result.pins,
            "counters": {counter: result.per_layer[counter]
                         for counter in layers.PINNED_COUNTERS}}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def check_full_oracle(workload, result: RunResult) -> None:
    run_dir = WORK / f"oracle-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        rows = oracle_rows(workload, result.seed, workload.points, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if digest(rows) != result.digest:
        raise BenchError(f"{workload.name}: independent backend differs")
    print(f"{workload.name}: all {workload.points} samples equal the "
          f"independent backend bitwise")


def check_committed_leaderboard(result: RunResult) -> None:
    board = json.loads((ROOT / "LEADERBOARD.json").read_text())
    values = {"entries": [entry for entry in board["entries"]
                          if entry["node"] == BOARD_NODE
                          and entry["corner"] in BOARD_CORNERS],
              "summaries": {key: summary for key, summary
                            in board["summaries"].items()
                            if summary["node"] == BOARD_NODE}}
    if digest(values) != result.digest:
        raise BenchError("leaderboard differs from LEADERBOARD.json")
    print("leaderboard: equals the committed LEADERBOARD.json entries")


COMMANDS = {"record": cmd_record, "compare": cmd_compare, "pin": cmd_pin}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in COMMANDS:
            return COMMANDS[argv[0]](argv[1:])
        return cmd_run(argv)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
