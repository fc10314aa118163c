"""Measuring layers from outside the program.

The traced pass needs per-layer numbers without editing ``src/``.  Three
devices provide them:

* :class:`MeteredOracle` wraps the fairness oracle in the program's own
  counting delegate (``InstrumentedOracle``, which forwards the incremental
  and the batched protocols) and times every call.
* :func:`patched_call_sites` replaces module-level names the program calls
  through (``repro.geometry.hyperplane.feasible_point`` and friends) with
  wrappers that count, time and optionally open a span, and restores them on
  exit.
* :func:`span_totals` reads the recorder's spans back into per-name totals,
  and :func:`residual_fraction` the share of operation time no child span
  covers.
"""

from __future__ import annotations

import importlib
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.data.dataset import Dataset
from repro.fairness.oracle import FairnessOracle
from repro.obs.instrument import InstrumentedOracle
from repro.obs.trace import Span, TraceRecorder

__all__ = [
    "CallMeter",
    "MeteredOracle",
    "CALL_SITES",
    "LP_CALL_SITES",
    "patched_call_sites",
    "span_totals",
    "span_attribute_totals",
    "residual_fraction",
]

_clock = time.perf_counter


class MeteredOracle(InstrumentedOracle):
    """:class:`~repro.obs.instrument.InstrumentedOracle` that also times the oracle.

    The parent counts calls exactly as ``CountingOracle`` does and forwards
    the incremental and the batched protocols, so the sweep and the batched
    pre-check run the same code as with the bare oracle.  This subclass adds
    ``busy_s``, the wall time spent inside the wrapped oracle, and reads
    ``swaps`` and ``batch_rows`` back from the parent's counters.
    """

    def __init__(self, inner: FairnessOracle) -> None:
        super().__init__(inner)
        self.busy_s = 0.0

    @property
    def swaps(self) -> int:
        return int(self._swap_calls.value)

    @property
    def batch_rows(self) -> int:
        return int(self._batched_calls.value)

    def _timed(self, method: Callable, *args: Any) -> Any:
        start = _clock()
        try:
            return method(*args)
        finally:
            self.busy_s += _clock() - start

    def is_satisfactory(self, ordering: np.ndarray, dataset: Dataset) -> bool:
        return self._timed(super().is_satisfactory, ordering, dataset)

    def is_satisfactory_many(self, orderings: np.ndarray, dataset: Dataset) -> np.ndarray:
        return self._timed(super().is_satisfactory_many, orderings, dataset)

    def begin(self, ordering: np.ndarray, dataset: Dataset) -> None:
        self._timed(super().begin, ordering, dataset)

    def apply_swap(self, pos_i: int, pos_j: int) -> None:
        self._timed(super().apply_swap, pos_i, pos_j)

    def verdict(self) -> bool:
        return self._timed(super().verdict)

    def describe(self) -> str:
        return f"metered({self.inner.describe()})"


@dataclass
class CallMeter:
    """Counters of one wrapped call site."""

    span_name: str
    calls: int = 0
    useful: int = 0
    busy_s: float = 0.0


def _feasible(result: Any) -> bool:
    return bool(getattr(result, "feasible", False))


#: ``(module or class path, attribute, span name, useful-outcome test)`` of
#: every call site the traced pass wraps.  An LP solve is useful when it
#: returns a feasible point; ``chebyshev_center`` raises on an empty region,
#: which counts as a wasted attempt.
CALL_SITES: tuple[tuple[str, str, str, Callable[[Any], bool] | None], ...] = (
    ("repro.geometry.hyperplane", "feasible_point", "lp.feasible_point", _feasible),
    ("repro.geometry.hyperplane", "chebyshev_center", "lp.chebyshev_center", _feasible),
    ("repro.core.multi_dim", "minimize", "multi_dim.minimize", None),
    ("repro.core.engine", "locate_cells", "partition.locate_cells", None),
    ("repro.fairness.batched", "order_many", "scoring.order_many", None),
    ("repro.core.two_dim:TwoDIndex", "query_many", "two_dim.query_many", None),
)

#: The LP call sites alone: the untraced pass counts their solves for the
#: cost stamp without opening spans.
LP_CALL_SITES = tuple(site for site in CALL_SITES if site[2].startswith("lp."))


def _resolve(owner_path: str) -> Any:
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _wrap(
    original: Callable,
    meter: CallMeter,
    recorder: TraceRecorder | None,
    useful: Callable[[Any], bool] | None,
) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        meter.calls += 1
        start = _clock()
        try:
            if recorder is None:
                result = original(*args, **kwargs)
            else:
                with recorder.span(meter.span_name):
                    result = original(*args, **kwargs)
        finally:
            meter.busy_s += _clock() - start
        if useful is not None and useful(result):
            meter.useful += 1
        return result

    return wrapper


@contextmanager
def patched_call_sites(
    sites=CALL_SITES, recorder: TraceRecorder | None = None
) -> Iterator[dict[str, CallMeter]]:
    """Wrap each call site for the body; yields the meters keyed by span name."""
    meters: dict[str, CallMeter] = {}
    with ExitStack() as restore:
        for owner_path, attribute, span_name, useful in sites:
            owner = _resolve(owner_path)
            original = getattr(owner, attribute)
            meter = meters[span_name] = CallMeter(span_name)
            setattr(owner, attribute, _wrap(original, meter, recorder, useful))
            restore.callback(setattr, owner, attribute, original)
        yield meters


def span_totals(spans: tuple[Span, ...]) -> dict[str, float]:
    """Summed duration per span name."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


def span_attribute_totals(spans: tuple[Span, ...], name: str, attribute: str) -> float:
    """Sum of one numeric attribute over the spans called ``name``."""
    return float(
        sum(
            value
            for span in spans
            if span.name == name
            for key, value in span.attributes
            if key == attribute
        )
    )


def residual_fraction(spans: tuple[Span, ...], prefix: str = "op.") -> float:
    """Share of the operation spans' time that none of their child spans covers.

    Operation spans (named ``op.*``) are the benchmark's calls into the
    engine seam; a child is any span opened directly inside one, whether a
    stage span of the program or a call-site span of :func:`patched_call_sites`.
    Children of one operation run one after another, so their durations add
    without overlap.
    """
    operations = {span.span_id: span for span in spans if span.name.startswith(prefix)}
    total = sum(span.duration for span in operations.values())
    if total <= 0.0:
        return 0.0
    covered = sum(
        span.duration for span in spans if span.parent_id in operations
    )
    return max(0.0, total - covered) / total
