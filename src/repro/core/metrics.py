"""Result dataclasses for level-shifter characterization."""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import format_eng

#: The six performance parameters of the paper's Tables 1-4, in order.
METRIC_FIELDS = (
    "delay_rise", "delay_fall", "power_rise", "power_fall",
    "leakage_high", "leakage_low",
)

#: Display units per metric, matching the paper's table rows.
METRIC_UNITS = {
    "delay_rise": "s", "delay_fall": "s",
    "power_rise": "W", "power_fall": "W",
    "leakage_high": "A", "leakage_low": "A",
}

#: Paper row labels per metric.
METRIC_LABELS = {
    "delay_rise": "Delay Rise",
    "delay_fall": "Delay Fall",
    "power_rise": "Power Rise",
    "power_fall": "Power Fall",
    "leakage_high": "Leakage Current High",
    "leakage_low": "Leakage Current Low",
}


@dataclass(frozen=True)
class ShifterMetrics:
    """One characterization run's results.

    Attributes:
        delay_rise: worst-case 50 %-to-50 % delay for a rising output [s].
        delay_fall: same for a falling output [s].
        power_rise: average VDDO-supply power over the rising-output
            switching window [W].
        power_fall: same for the falling-output window [W].
        leakage_high: static VDDO-supply current with the output high [A].
        leakage_low: same with the output low [A].
        functional: whether the output settled to correct full-swing
            levels after every stimulus edge.
    """

    delay_rise: float
    delay_fall: float
    power_rise: float
    power_fall: float
    leakage_high: float
    leakage_low: float
    functional: bool = True

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_FIELDS}

    def ratio_to(self, other: "ShifterMetrics") -> dict[str, float]:
        """Per-metric ratio other/self — "how many times better we are".

        Matches the paper's headline phrasing ("7.5x lower leakage"
        means combined/sstvs = 7.5).
        """
        return {name: getattr(other, name) / getattr(self, name)
                for name in METRIC_FIELDS}

    def pretty(self, title: str = "") -> str:
        lines = [title] if title else []
        for name in METRIC_FIELDS:
            unit = METRIC_UNITS[name]
            lines.append(f"  {METRIC_LABELS[name]:<22s} "
                         f"{format_eng(getattr(self, name), unit)}")
        lines.append(f"  {'Functional':<22s} {self.functional}")
        return "\n".join(lines)


@dataclass(frozen=True)
class MetricStatistics:
    """Mean and standard deviation per metric over a Monte Carlo set."""

    mean: ShifterMetrics
    std: ShifterMetrics
    runs: int
    functional_yield: float

    def pretty(self, title: str = "") -> str:
        lines = [title] if title else []
        lines.append(f"  runs={self.runs}  "
                     f"yield={self.functional_yield * 100:.1f}%")
        for name in METRIC_FIELDS:
            unit = METRIC_UNITS[name]
            lines.append(
                f"  {METRIC_LABELS[name]:<22s} "
                f"mu={format_eng(getattr(self.mean, name), unit):>10s}  "
                f"sigma={format_eng(getattr(self.std, name), unit):>10s}")
        return "\n".join(lines)


def aggregate(samples: list[ShifterMetrics]) -> MetricStatistics:
    """Mean/sigma statistics over a list of metric samples.

    Each metric's mean and sigma cover its finite values only, so a
    non-functional sample whose metrics are NaN does not wipe out the
    statistics; ``runs`` and ``functional_yield`` still count every
    sample. A metric with no finite value reports NaN. Raises
    ValueError on empty input.
    """
    import numpy as np

    if not samples:
        raise ValueError("cannot aggregate zero samples")
    means, stds = {}, {}
    for name in METRIC_FIELDS:
        values = np.asarray([getattr(s, name) for s in samples])
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            means[name] = stds[name] = np.nan
            continue
        means[name] = float(np.mean(finite))
        stds[name] = (float(np.std(finite, ddof=1)) if finite.size > 1
                      else 0.0)
    mean = ShifterMetrics(**means,
                          functional=all(s.functional for s in samples))
    std = ShifterMetrics(**stds, functional=True)
    yield_frac = sum(1 for s in samples if s.functional) / len(samples)
    return MetricStatistics(mean=mean, std=std, runs=len(samples),
                            functional_yield=yield_frac)
