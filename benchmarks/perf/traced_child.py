"""The traced pass: one ``repro`` CLI command with every layer timed.

Run as ``python -m benchmarks.perf.traced_child SPANS_DIR <repro argv...>``.
Imports the CLI (timed as ``cli.import_s``), wraps the functions in
:data:`benchmarks.perf.layers.TARGETS`, makes a ``CollectingTracer``
ambient so the program's own counters are collected, and runs the
command. Forked pool workers inherit the wrappers and the tracer; each
process writes ``spans-<pid>.jsonl`` into SPANS_DIR. Exits with the
command's exit code.
"""

from __future__ import annotations

import os
import sys
import time


def main(argv) -> int:
    spans_dir, cli_argv = argv[0], argv[1:]
    started = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - started

    from benchmarks.perf.layers import TARGETS
    from benchmarks.perf.spans import SpanRecorder, install
    from repro.runtime import telemetry
    from repro.spice.newton import solve_stats

    tracer = telemetry.CollectingTracer(condition_estimates=False)
    recorder = SpanRecorder(spans_dir, counters=lambda: tracer.counters)
    install(TARGETS, recorder)
    os.register_at_fork(after_in_child=recorder.after_fork)
    with telemetry.trace(tracer):
        code = repro.cli.main(cli_argv)
    recorder.flush(final={"cli_import_s": import_s,
                          "solve_stats": solve_stats(), "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
