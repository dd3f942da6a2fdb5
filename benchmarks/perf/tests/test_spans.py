"""Span recorder: wrapper rebinding, self time, per-pid flush and merge."""

from __future__ import annotations

import os
import pickle
import sys
import types

import pytest

from benchmarks.perf.spans import (
    SpanRecorder, combine, install, merge_span_files, percentile, span_table,
)


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


@pytest.fixture
def fakepkg():
    """``fakepkg.lib`` defines f/gen/Box; ``fakepkg.user`` binds f by
    ``from fakepkg.lib import f``."""
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    exec("def f(x):\n    return x + 1\n"
         "def gen(n):\n    for i in range(n):\n        yield i\n"
         "class Box:\n    def get(self):\n        return f(41)\n",
         lib.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.f = lib.f
    other = types.ModuleType("otherpkg")
    other.f = lib.f
    modules = {"fakepkg": pkg, "fakepkg.lib": lib, "fakepkg.user": user,
               "otherpkg": other}
    sys.modules.update(modules)
    yield lib, user, other
    for name in modules:
        del sys.modules[name]


def test_install_rebinds_from_imports_and_methods(fakepkg, tmp_path):
    lib, user, other = fakepkg
    original = lib.f
    recorder = SpanRecorder(tmp_path)
    restore = install([("fakepkg.lib", "f", "lib.f"),
                       ("fakepkg.lib", "Box.get", "lib.get")],
                      recorder, package="fakepkg")
    try:
        assert lib.f is user.f and lib.f is not original
        assert other.f is original  # outside the package: untouched
        assert user.f(1) == 2
        assert lib.Box().get() == 42
        # The wrapper keeps the original's identity for pickling.
        assert pickle.loads(pickle.dumps(lib.f)) is lib.f
    finally:
        restore()
    spans = merge_span_files(tmp_path)[os.getpid()]["spans"]
    assert spans["lib.f"]["calls"] == 2  # direct, and inside Box.get
    assert spans["lib.get"]["calls"] == 1
    assert spans["lib.get"]["self_s"] < spans["lib.get"]["total_s"]
    assert lib.f is original and user.f is original
    assert not hasattr(lib.Box.__dict__["get"], "__wrapped__")


def test_generator_span_excludes_the_consumer(fakepkg, tmp_path):
    lib, _, _ = fakepkg
    # enter/exit pairs: three resumptions (items 0, 1, then exhaustion),
    # each 1 s inside the generator, with 10 s of consumer work between.
    clock = FakeClock(0, 1, 11, 12, 22, 23)
    recorder = SpanRecorder(tmp_path, clock=clock)
    restore = install([("fakepkg.lib", "gen", "lib.gen")], recorder,
                      package="fakepkg")
    try:
        assert list(lib.gen(2)) == [0, 1]
    finally:
        restore()
    merged = merge_span_files(tmp_path)[os.getpid()]["spans"]["lib.gen"]
    assert merged["calls"] == 1
    assert merged["total_s"] == 3 and merged["self_s"] == 3
    assert merged["durations"] == []


def test_self_time_of_nested_spans(tmp_path):
    # outer [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3].
    clock = FakeClock(0, 1, 2, 3, 4, 5, 9, 10)
    recorder = SpanRecorder(tmp_path, clock=clock)
    recorder.enter("outer")
    recorder.enter("a")
    recorder.enter("c")
    recorder.exit()
    recorder.exit()
    recorder.enter("b")
    recorder.exit()
    recorder.exit()
    spans = merge_span_files(tmp_path)[os.getpid()]["spans"]
    assert spans["outer"]["total_s"] == 10 and spans["outer"]["self_s"] == 3
    assert spans["a"]["total_s"] == 3 and spans["a"]["self_s"] == 2
    assert spans["c"]["self_s"] == 1 and spans["b"]["self_s"] == 4


def test_recursive_span_total_counts_the_outermost_call(tmp_path):
    clock = FakeClock(0, 1, 3, 4)
    recorder = SpanRecorder(tmp_path, clock=clock)
    recorder.enter("r")
    recorder.enter("r")
    recorder.exit()
    recorder.exit()
    spans = merge_span_files(tmp_path)[os.getpid()]["spans"]
    assert spans["r"] == {"calls": 2, "total_s": 4, "self_s": 4,
                          "durations": [2, 4]}


def test_forked_worker_flushes_its_own_spans_and_counter_deltas(tmp_path):
    counters = {"work.items": 7}
    recorder = SpanRecorder(tmp_path, counters=lambda: counters)
    recorder.enter("parent.run")
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            recorder.after_fork()
            for _ in range(2):
                recorder.enter("worker.chunk")
                counters["work.items"] += 5
                recorder.exit()
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    counters["work.items"] += 1
    recorder.exit()
    processes = merge_span_files(tmp_path)
    child, parent = processes[pid], processes[os.getpid()]
    assert set(child["spans"]) == {"worker.chunk"}
    assert child["spans"]["worker.chunk"]["calls"] == 2
    assert child["counters"] == {"work.items": 10}
    assert child["outer_s"] == pytest.approx(
        child["spans"]["worker.chunk"]["total_s"])
    assert set(parent["spans"]) == {"parent.run"}
    assert parent["counters"] == {"work.items": 8}
    assert combine(processes)["worker.chunk"]["calls"] == 2
    assert set(combine(processes)) == {"parent.run", "worker.chunk"}


def test_percentiles_only_for_spans_with_many_calls():
    assert percentile([1, 2, 3, 4], 0.5) == 2
    assert percentile(list(range(1, 1001)), 0.99) == 990
    many = {"calls": 1000, "total_s": 1.0, "self_s": 1.0,
            "durations": [0.001] * 1000}
    few = {"calls": 999, "total_s": 2.0, "self_s": 2.0,
           "durations": [0.002] * 999}
    rows = {row[0]: row for row in span_table({"many": many, "few": few})}
    assert rows["many"][4:] == (0.001, 0.001)
    assert rows["few"][4:] == (None, None)
    assert [row[0] for row in span_table({"many": many, "few": few})] == \
        ["few", "many"]
