"""Micro-benchmarks the end-to-end benchmark harness leans on.

The repository's timing surface is ``python3 benchmarks/perf/run.py``:
it runs the north-star campaigns as fresh CLI processes, checks their
outputs bitwise, and compares recorded baselines with
``run.py compare``. Two in-process measurements remain here because
they price something a CLI run cannot:

* :func:`machine_calibration` — a constant-work LAPACK loop stamped
  into every recorded baseline, so a reader can tell a code regression
  from a slower machine;
* :func:`bench_tracer_overhead` — a fixed DC-solve loop run with
  tracing disabled / NullTracer / CollectingTracer back to back,
  guarding the telemetry layer's zero-cost-when-disabled contract
  (NullTracer ≤ :data:`TRACER_OVERHEAD_TOLERANCE` over disabled).
"""

from __future__ import annotations

import gc
import time

#: An ambient NullTracer may cost at most this fraction over the
#: disabled (ambient None) hot path — the telemetry layer's
#: "zero-cost-when-disabled" contract.
TRACER_OVERHEAD_TOLERANCE = 0.02


def _isolate() -> None:
    """Collect garbage before entering a timed region.

    Whatever ran earlier in the process leaves surviving-then-dying
    objects behind, and gen-2 collections would otherwise fire *inside*
    the timed region (measured: up to ~25% on an in-process Monte Carlo
    that followed another). Standard benchmark isolation — each timed
    region starts with an empty collector debt.
    """
    gc.collect()


def _timed(thunk) -> float:
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started


def machine_calibration(repeats: int = 3) -> dict:
    """A fixed LAPACK workload that prices the machine, not the code.

    The shared benchmark container's wall clock swings by tens of
    percent with hypervisor load; this constant-work microbenchmark
    (2000 batched 100x13 solves — the MC workload's kernel shape) is
    recorded alongside every benchmark baseline so a reader can tell a
    code regression (rate down, calibration flat) from a noisy machine
    (both move together).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    matrices = rng.standard_normal((100, 13, 13)) + np.eye(13) * 5.0
    rhs = rng.standard_normal((100, 13, 1))
    _isolate()
    np.linalg.solve(matrices, rhs)  # warm the gufunc outside the timing

    def pass_once():
        for _ in range(2000):
            np.linalg.solve(matrices, rhs)

    best = min(_timed(pass_once) for _ in range(repeats))
    return {"lapack_fixed_work_s": best, "repeats": repeats}


def _tracer_overhead_circuits(n: int) -> list:
    """Small nonlinear DC circuits for the tracer-overhead workload.

    Cheap solves on purpose: the cheaper the solve, the larger the
    relative weight of the instrumentation calls, so the ≤2% guard is
    conservative for the real (heavier) workloads.
    """
    from repro.spice import Circuit
    from repro.spice.devices import Diode, Resistor, VoltageSource
    circuits = []
    for k in range(n):
        ckt = Circuit(f"tracer-bench-{k}")
        ckt.add(VoltageSource("v", "a", "0",
                              dc=1.0 + 0.5 * (k % 8) / 8.0))
        ckt.add(Resistor("r", "a", "d", 1e3))
        ckt.add(Diode("d1", "d", "0"))
        ckt.finalize()
        circuits.append(ckt)
    return circuits


def bench_tracer_overhead(solves: int = 200, repeats: int = 3) -> dict:
    """Measure the telemetry layer's instrumentation cost.

    Times the same fixed set of DC solves three ways: tracing disabled
    (ambient tracer is None — the default hot path), with an ambient
    :class:`~repro.runtime.telemetry.NullTracer` (every guard passes
    and every emission call is made, but nothing is recorded), and with
    a :class:`CollectingTracer` (full recording including condition
    estimates). Activation (``trace()`` entry and tracer construction)
    happens once per campaign *point*, not per solve, so it sits
    outside the timed region — what is bounded here is the steady-state
    per-solve cost of the instrumentation sites themselves.

    Each circuit is solved once per mode back to back, with the mode
    order rotating per circuit, and the overhead is the ratio of
    per-mode *median* solve times — per-solve interleaving plus a
    median over hundreds of samples is what survives a noisy shared
    machine, where pass-level wall times can drift by 10–20 %.

    ``null_overhead`` is the fractional cost of the instrumentation
    itself; the test suite fails when it exceeds
    :data:`TRACER_OVERHEAD_TOLERANCE` (with a margin for loaded hosts).
    """
    from repro.runtime import telemetry
    from repro.spice.op import OperatingPoint

    circuits = _tracer_overhead_circuits(solves)
    for ckt in circuits:  # build assembly plans outside the timed region
        OperatingPoint(ckt).run()

    order = ("disabled", "null", "collecting")
    durations: dict[str, list[float]] = {name: [] for name in order}
    _isolate()
    suite_started = time.perf_counter()
    for _ in range(repeats):
        for k, ckt in enumerate(circuits):
            rotation = order[k % 3:] + order[:k % 3]
            for name in rotation:
                if name == "disabled":
                    started = time.perf_counter()
                    OperatingPoint(ckt).run()
                    durations[name].append(time.perf_counter() - started)
                else:
                    tracer = (telemetry.NullTracer() if name == "null"
                              else telemetry.CollectingTracer())
                    with telemetry.trace(tracer):
                        started = time.perf_counter()
                        OperatingPoint(ckt).run()
                        durations[name].append(
                            time.perf_counter() - started)
    wall_s = time.perf_counter() - suite_started

    medians = {name: _median(values)
               for name, values in durations.items()}
    disabled = medians["disabled"]
    return {
        "workload": "tracer",
        "solves": solves,
        "repeats": repeats,
        "disabled_solve_s": disabled,
        "null_solve_s": medians["null"],
        "collecting_solve_s": medians["collecting"],
        "null_overhead": medians["null"] / disabled - 1.0,
        "collecting_overhead": medians["collecting"] / disabled - 1.0,
        "wall_s": wall_s,
    }


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
