"""Campaign-level failure accounting.

The analysis drivers (Monte Carlo, sweeps, corners, functional grids)
quarantine failing points into :class:`SampleFailure` records instead
of raising, and :func:`failure_summary` renders them for CLI
reporting. Floorplanning-scale consumers call characterization
thousands of times per placement; they need "193/200 succeeded, these
7 indices failed and why", not a traceback from the worst sample.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SampleFailure:
    """One quarantined campaign point.

    Attributes:
        index: sample identity — an int for Monte Carlo, an ``(i, j)``
            grid position for sweeps, a ``(corner, temp)`` pair for PVT.
        stage: where it died (``"injected"``, ``"characterize"``,
            ``"quick_delays"``, ...).
        error: one-line failure description.
        report: the :class:`~repro.runtime.report.SolveReport` (or
            transient report) from the failing solve, when available.
    """

    index: object
    stage: str
    error: str
    report: object | None = None

    def describe(self) -> str:
        return f"{self.index}: [{self.stage}] {self.error}"


def failure_summary(total: int, failures: list,
                    interrupted: bool = False, limit: int = 10) -> str:
    """``"k/n points succeeded, m quarantined"`` plus the first
    ``limit`` failures, one per line."""
    lines = [f"{total - len(failures)}/{total} points succeeded, "
             f"{len(failures)} quarantined"
             + (", INTERRUPTED" if interrupted else "")]
    for failure in failures[:limit]:
        lines.append(f"  {failure.describe()}")
    if len(failures) > limit:
        lines.append(f"  (+{len(failures) - limit} more)")
    return "\n".join(lines)
