"""A dependency-free metrics registry: counters, gauges, latency histograms.

:class:`MetricsRegistry` hands out *labeled series* — one
:class:`Counter`/:class:`Gauge`/:class:`Histogram` per ``(name, labels)``
pair, created on first use and shared on every later lookup, so call sites
can cache the handle and pay one attribute bump on the hot path.  A metric
name has one kind for the life of the registry (and one bucket layout, for
histograms); mixing kinds raises
:class:`~repro.exceptions.ConfigurationError`.

Snapshot semantics: :meth:`MetricsRegistry.snapshot` returns a
JSON-compatible dict stamped ``repro.obs/v1`` with every series sorted by
``(name, labels)`` — two registries that saw the same operations snapshot to
byte-identical JSON regardless of creation order.  :meth:`~MetricsRegistry.merge`
adds another registry's counters and histograms into this one (gauges are
last-write-wins); :meth:`~MetricsRegistry.reset` zeroes every series in
place, keeping handles held by call sites valid.

Histograms are fixed-bucket: ``buckets`` is a strictly increasing tuple of
upper bounds with an implicit ``+inf`` overflow bucket, Prometheus-style
``value <= bound`` assignment (:func:`bucket_label` names the bucket a value
falls in, which is also the latency-bucket vocabulary of the workload
recorder).  No ``time.*`` anywhere: observations are durations handed in by
callers who timed them on an injectable clock.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from pathlib import Path
from typing import Any, Iterator

from repro.exceptions import ConfigurationError

__all__ = [
    "METRICS_FORMAT",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_label",
]

#: Format tag stamped on every metrics snapshot.
METRICS_FORMAT = "repro.obs/v1"

#: Default latency buckets (seconds): 100 µs .. 2.5 s, plus implicit +inf.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)

#: One series key: the metric name plus its sorted ``(key, value)`` labels.
_SeriesKey = tuple[str, tuple[tuple[str, str], ...]]


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


def bucket_label(value: float, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> str:
    """Name of the bucket ``value`` falls in: ``"le=<bound>"`` or ``"le=+inf"``."""
    value = float(value)
    index = bisect_left(buckets, value)
    if index >= len(buckets):
        return "le=+inf"
    return f"le={buckets[index]!r}"


class Counter:
    """A monotonically increasing count (``inc`` rejects negative amounts)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (got {amount}); use a gauge"
            )
        self.value += amount

    def _reset(self) -> None:
        self.value = 0


class Gauge:
    """A value that can move both ways (queue depths, buffer sizes)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += float(amount)

    def _reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Fixed-bucket distribution with ``value <= bound`` assignment."""

    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        buckets: tuple[float, ...],
    ) -> None:
        self.name = name
        self.labels = labels
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    def _reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0


class MetricsRegistry:
    """Get-or-create home of every labeled series; see the module docstring."""

    def __init__(self) -> None:
        self._kinds: dict[str, str] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}
        self._counters: dict[_SeriesKey, Counter] = {}
        self._gauges: dict[_SeriesKey, Gauge] = {}
        self._histograms: dict[_SeriesKey, Histogram] = {}

    # ------------------------------------------------------------------ #
    # series accessors
    # ------------------------------------------------------------------ #
    def _claim(self, name: str, kind: str) -> str:
        name = str(name)
        registered = self._kinds.setdefault(name, kind)
        if registered != kind:
            raise ConfigurationError(
                f"metric {name!r} is already registered as a {registered}, "
                f"cannot reuse it as a {kind}"
            )
        return name

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter series for ``(name, labels)``, created on first use."""
        name = self._claim(name, "counter")
        key = (name, _label_key(labels))
        series = self._counters.get(key)
        if series is None:
            series = self._counters[key] = Counter(name, key[1])
        return series

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge series for ``(name, labels)``, created on first use."""
        name = self._claim(name, "gauge")
        key = (name, _label_key(labels))
        series = self._gauges.get(key)
        if series is None:
            series = self._gauges[key] = Gauge(name, key[1])
        return series

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        """The histogram series for ``(name, labels)``, created on first use.

        Every series of one name shares one bucket layout; a differing
        ``buckets`` argument on a later call raises.
        """
        name = self._claim(name, "histogram")
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram buckets must be non-empty and strictly increasing, got {bounds}"
            )
        registered = self._buckets.setdefault(name, bounds)
        if registered != bounds:
            raise ConfigurationError(
                f"histogram {name!r} already uses buckets {registered}, got {bounds}"
            )
        key = (name, _label_key(labels))
        series = self._histograms.get(key)
        if series is None:
            series = self._histograms[key] = Histogram(name, key[1], bounds)
        return series

    def counter_total(self, name: str) -> int | float:
        """Sum of one counter name across all of its label series, in label order."""
        return sum(
            series.value for key, series in sorted(self._counters.items()) if key[0] == name
        )

    def _all_series(self) -> Iterator[Counter | Gauge | Histogram]:
        yield from self._counters.values()
        yield from self._gauges.values()
        yield from self._histograms.values()

    # ------------------------------------------------------------------ #
    # snapshot / merge / reset
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, Any]:
        """JSON-compatible, fully sorted state dump (format ``repro.obs/v1``)."""
        counters = [
            {"name": series.name, "labels": dict(series.labels), "value": series.value}
            for _, series in sorted(self._counters.items())
        ]
        gauges = [
            {"name": series.name, "labels": dict(series.labels), "value": series.value}
            for _, series in sorted(self._gauges.items())
        ]
        histograms = [
            {
                "name": series.name,
                "labels": dict(series.labels),
                "buckets": list(series.buckets),
                "counts": list(series.counts),
                "count": series.count,
                "sum": series.sum,
            }
            for _, series in sorted(self._histograms.items())
        ]
        return {
            "format": METRICS_FORMAT,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self) -> str:
        """The snapshot as canonical JSON text (sorted keys, trailing newline)."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str | Path) -> Path:
        """Write :meth:`to_json` to ``path`` and return it."""
        path = Path(path)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one.

        Counters and histograms add; gauges take the other registry's value.
        Kind or bucket conflicts raise, leaving already-merged series merged
        (merge is not transactional).
        """
        for (name, _), series in other._counters.items():
            self.counter(name, **dict(series.labels)).value += series.value
        for (name, _), series in other._gauges.items():
            self.gauge(name, **dict(series.labels)).value = series.value
        for (name, _), series in other._histograms.items():
            mine = self.histogram(name, buckets=series.buckets, **dict(series.labels))
            mine.counts = [a + b for a, b in zip(mine.counts, series.counts)]
            mine.count += series.count
            mine.sum += series.sum

    def reset(self) -> None:
        """Zero every series in place; handles held by call sites stay valid."""
        for series in self._all_series():
            series._reset()
