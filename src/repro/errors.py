"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch one
base class. Subclasses distinguish netlist construction problems, parse
errors, solver failures, and measurement failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class CircuitError(ReproError):
    """Invalid circuit construction (unknown node, duplicate device, ...)."""


class NetlistError(ReproError):
    """A structural netlist or a numeric value could not be parsed."""


class ConvergenceError(ReproError):
    """The nonlinear solver failed to converge.

    Attributes:
        iterations: iterations spent by the best (closest) attempt.
        residual: that attempt's final residual proxy [V], if known.
        report: the :class:`~repro.runtime.report.SolveReport` (or
            :class:`~repro.runtime.report.TransientReport`) recording
            every retry strategy tried before giving up, when the error
            escaped the full retry ladder rather than a single solve.
    """

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None, report=None):
        self.iterations = iterations
        self.residual = residual
        self.report = report
        super().__init__(message)

    @property
    def attempts(self) -> list:
        """Per-attempt history (empty when no report was attached)."""
        return list(getattr(self.report, "attempts", ()) or ())


class AnalysisError(ReproError):
    """An analysis was configured incorrectly or failed to complete."""


class MeasurementError(ReproError):
    """A waveform measurement could not be evaluated (no crossing, ...)."""


class ModelError(ReproError):
    """Invalid device-model parameters."""
