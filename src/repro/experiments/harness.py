"""Experiment harness: the series containers the paper's figures are made of.

Every table and figure of the paper's evaluation is regenerated by a function
in :mod:`repro.experiments.workloads`; those functions collect their points
into the :class:`Series` and :class:`SweepResult` containers here, so that
benchmarks and the EXPERIMENTS report share one shape of result.  Every
duration they report is read from spans by :func:`span_seconds`, on the
clock of :class:`~repro.obs.trace.TraceRecorder`, never from a stopwatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.trace import TraceRecorder, activated

__all__ = ["Series", "SweepResult", "span_seconds"]


def span_seconds(name: str, body: Callable[[], Any]) -> tuple[Any, dict[str, float]]:
    """Run ``body()`` in a span ``name`` of a fresh recorder activated as the stage-span target.

    Returns the body's result and the summed seconds of each span name: ``name``
    is the body's total, and the program's own stage spans, matched by exact
    name (so nested chunk spans never count twice), break it down.
    """
    recorder = TraceRecorder()
    with activated(recorder), recorder.span(name) as span:
        result = body()
    seconds: dict[str, float] = {}
    for recorded in recorder.spans:
        seconds[recorded.name] = seconds.get(recorded.name, 0.0) + recorded.duration
    seconds[name] = span.duration
    return result, seconds


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
