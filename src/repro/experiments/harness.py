"""Experiment harness: the series containers the paper's figures are made of.

Every table and figure of the paper's evaluation is regenerated by a function
in :mod:`repro.experiments.workloads`; those functions collect their points
into the :class:`Series` and :class:`SweepResult` containers here, so that
benchmarks and the EXPERIMENTS report share one shape of result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Series", "SweepResult"]


@dataclass
class Series:
    """A named series of (x, y) points, the unit the paper's figures are made of."""

    name: str
    x_label: str
    y_label: str
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point."""
        self.xs.append(float(x))
        self.ys.append(float(y))

    def rows(self) -> list[tuple[float, float]]:
        """The points as a list of rows."""
        return list(zip(self.xs, self.ys))

    def __len__(self) -> int:
        return len(self.xs)


@dataclass
class SweepResult:
    """Result of sweeping a parameter: one or more series sharing the same x axis."""

    parameter: str
    series: dict[str, Series] = field(default_factory=dict)

    def series_named(self, name: str, y_label: str = "") -> Series:
        """Get (or create) a series by name."""
        if name not in self.series:
            self.series[name] = Series(name=name, x_label=self.parameter, y_label=y_label or name)
        return self.series[name]
