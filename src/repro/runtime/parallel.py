"""Seed-stable parallel campaign execution.

Campaign drivers (Monte Carlo, delay-surface sweeps, functional grids,
PVT corners) are embarrassingly parallel: every sample is identified by
a small picklable task tuple and derives all of its randomness from the
task itself (e.g. ``SeedSequence([seed, index])``), never from shared
state. :func:`parallel_map` exploits that: the *same* module-level
worker function runs in-process when ``workers <= 1`` and in a process
pool otherwise, so parallel results are bitwise identical to serial
ones, sample for sample.

Design points:

* **One task per submission** — an idle worker always takes the next
  pending task, so none waits behind others in a shared batch. Dispatch
  costs well under a millisecond per task, against hundreds for a
  solver point; cheaper work is batched by the caller into its own
  tasks (the batched backend ships one lane group per task).
* **Completion order** — results are yielded as each task finishes,
  not in task order. Workers embed the sample index in their return
  value, and drivers sort at the end, so ordering is an observability
  property (progress callbacks), not a correctness one.
* **Interrupt safety** — when the consumer stops iterating (Ctrl-C, an
  abort threshold), the generator's cleanup cancels outstanding tasks
  and shuts the pool down without waiting, preserving the
  partial-result semantics of the serial path.
* **Worker exceptions propagate** in both modes. Campaigns that must
  quarantine per-sample failures catch them *inside* the worker and
  encode them in the return value; an exception escaping the worker is
  an engine bug, not a sample failure.

Fault-injection campaigns (:class:`~repro.runtime.faults.FaultPlan`)
must stay serial: plans count firings in mutable in-process state that
a pool cannot share. The experiment engine forces ``workers = 1`` when
a plan is attached.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), at least 1.

    Falls back to ``os.cpu_count()`` where the platform has no
    affinity call.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def parallel_map(worker: Callable[[T], R], tasks: Iterable[T], *,
                 workers: int = 1,
                 context=None) -> Iterator[R]:
    """Yield ``worker(task)`` for every task, possibly from a pool.

    Args:
        worker: a *module-level* function (pickled by reference for the
            pool path). It must derive everything from its task
            argument (plus ``context``, when given); results must be
            picklable.
        tasks: task values; consumed eagerly.
        workers: ``<= 1`` runs serially in-process (no pool, no pickle,
            task order preserved) — the behavior-identical default.
        context: optional task-invariant payload. When given, the
            worker is called as ``worker(task, context)``, so
            task-invariant arguments (measure function, stage, trace
            mode, solver) stay out of the per-point task tuples.

    Yields results in completion order (== task order when serial).
    """
    tasks = list(tasks)
    extra = () if context is None else (context,)
    if workers is None or workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield worker(task, *extra)
        return
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    executor = ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                   mp_context=ctx)
    try:
        futures = [executor.submit(worker, task, *extra)
                   for task in tasks]
        for future in as_completed(futures):
            yield future.result()
    except BaseException:
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    # A completed map waits for the pool to wind down: an executor
    # still closing its wakeup pipe when the interpreter exits can
    # race the exit hook's unlocked write to that pipe and print an
    # EBADF traceback after the run succeeded.
    executor.shutdown(wait=True)
