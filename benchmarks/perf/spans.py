"""Span recording for the traced pass, from outside the program.

The traced child wraps public functions of ``repro`` in place: each
wrapper opens a span on entry and closes it on exit, so the program is
observed without being edited. A span's *self time* is its duration
minus the time its direct child spans cover.

Worker processes are forked from the traced parent and inherit the
wrappers; :meth:`SpanRecorder.after_fork` clears the inherited stack so
each process records only its own work. Whenever a process's outermost
span ends, the recorder appends what it recorded since the last flush
(spans plus program counter deltas) as one line of
``spans-<pid>.jsonl``; :func:`merge_span_files` folds those lines back
into per-process totals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

#: Spans with at least this many calls also report per-call p50/p99.
PERCENTILE_MIN_CALLS = 1000


class SpanRecorder:
    """Per-process span stack with self-time accounting.

    Args:
        out_dir: directory receiving ``spans-<pid>.jsonl`` files.
        counters: callable returning the program's cumulative counter
            dict; each flush records the delta since the previous one.
        clock: monotonic clock (injectable for tests).
    """

    def __init__(self, out_dir, counters=dict, clock=time.perf_counter):
        self.out_dir = Path(out_dir)
        self.counters = counters
        self.clock = clock
        self._baseline: dict = {}
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.stack: list = []    # [name, start, child_s]
        self.open: dict = {}     # name -> nesting depth
        self.spans: dict = {}    # name -> {"calls", "total_s", ...}
        self.outer_s = 0.0

    def after_fork(self) -> None:
        """Forget the parent's open spans; count from the fork on."""
        self._reset()
        self._baseline = dict(self.counters())

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])
        self.open[name] = self.open.get(name, 0) + 1

    def exit(self, calls: int = 1, sample: bool = True) -> None:
        """Close the innermost span.

        ``calls`` is 0 for every generator segment after the first, so
        a generator counts as one call however often it resumes;
        ``sample`` keeps the duration for percentiles (plain calls).
        """
        name, start, child_s = self.stack.pop()
        duration = self.clock() - start
        self.open[name] -= 1
        entry = self.spans.get(name)
        if entry is None:
            entry = self.spans[name] = {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "durations": []}
        entry["calls"] += calls
        entry["self_s"] += duration - child_s
        if self.open[name] == 0:
            # A recursive call is already inside its outer occurrence.
            entry["total_s"] += duration
        if sample:
            entry["durations"].append(duration)
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.outer_s += duration
            self.flush()

    def flush(self, final: dict | None = None) -> None:
        """Append everything recorded since the last flush."""
        counters = dict(self.counters())
        delta = {name: value - self._baseline.get(name, 0)
                 for name, value in counters.items()
                 if value != self._baseline.get(name, 0)}
        self._baseline = counters
        record = {"pid": self.pid, "spans": self.spans,
                  "outer_s": self.outer_s, "counters": delta,
                  "maxrss_kb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss}
        if final is not None:
            record["final"] = final
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = {}
        self.outer_s = 0.0


def _wrap(original, span: str, recorder: SpanRecorder):
    if inspect.isgeneratorfunction(original):
        @functools.wraps(original)
        def generator_wrapper(*args, **kwargs):
            # Only time spent inside the generator's frame belongs to
            # the span; the consumer's work between items does not.
            inner = original(*args, **kwargs)
            first = True
            try:
                while True:
                    recorder.enter(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder.exit(calls=int(first), sample=False)
                        first = False
                    yield item
            finally:
                inner.close()
        return generator_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder.enter(span)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.exit()
    return wrapper


def install(targets, recorder: SpanRecorder, package: str = "repro"):
    """Wrap every ``(module, qualname, span)`` target; returns an undo.

    A module-level function is replaced in every module of ``package``
    that binds the same object, so callers that did ``from x import f``
    see the wrapper too. A method (``"Class.method"``) is replaced on
    its class. The wrapper keeps the original's name and module, so a
    wrapped function still pickles by reference.
    """
    undo = []
    for module_name, qualname, span in targets:
        module = importlib.import_module(module_name)
        owner = module
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = _wrap(original, span, recorder)
        if path:
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package
                                   or name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


def percentile(sorted_values: list, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def merge_span_files(out_dir) -> dict:
    """Fold every ``spans-<pid>.jsonl`` into per-process totals.

    Returns ``{pid: {"spans", "outer_s", "counters", "maxrss_kb",
    "final"}}``; span durations stay as lists so percentiles can be
    taken over any set of processes.
    """
    processes: dict = {}
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                proc = processes.setdefault(record["pid"], {
                    "spans": {}, "outer_s": 0.0, "counters": {},
                    "maxrss_kb": 0, "final": None})
                _add_spans(proc["spans"], record["spans"])
                proc["outer_s"] += record["outer_s"]
                for name, value in record["counters"].items():
                    proc["counters"][name] = \
                        proc["counters"].get(name, 0) + value
                proc["maxrss_kb"] = max(proc["maxrss_kb"],
                                        record["maxrss_kb"])
                if record.get("final") is not None:
                    proc["final"] = record["final"]
    return processes


def _add_spans(into: dict, spans: dict) -> None:
    for name, entry in spans.items():
        total = into.setdefault(name, {"calls": 0, "total_s": 0.0,
                                       "self_s": 0.0, "durations": []})
        total["calls"] += entry["calls"]
        total["total_s"] += entry["total_s"]
        total["self_s"] += entry["self_s"]
        total["durations"].extend(entry["durations"])


def combine(processes) -> dict:
    """Span totals summed over all processes."""
    combined: dict = {}
    for proc in processes.values():
        _add_spans(combined, proc["spans"])
    return combined


def span_table(spans: dict) -> list:
    """Rows ``(name, calls, total_s, self_s, p50_s, p99_s)`` by total."""
    rows = []
    for name, entry in spans.items():
        p50 = p99 = None
        if entry["calls"] >= PERCENTILE_MIN_CALLS and entry["durations"]:
            ordered = sorted(entry["durations"])
            p50 = percentile(ordered, 0.50)
            p99 = percentile(ordered, 0.99)
        rows.append((name, entry["calls"], entry["total_s"],
                     entry["self_s"], p50, p99))
    rows.sort(key=lambda row: -row[2])
    return rows
