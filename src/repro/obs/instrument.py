"""The ``"instrumented"`` engine: spans, metrics and workload recording
around any inner engine, plus the matching :class:`InstrumentedOracle`.

:class:`InstrumentedEngine` registers through the :mod:`repro.core.engine`
seam (same composite pattern as :class:`~repro.parallel.pool.PoolEngine` —
a serving-layer wrapper, not a facade branch), so
``FairRankingDesigner(dataset, oracle, InstrumentedConfig(inner=...))``
works unchanged.  It wraps the oracle in an :class:`InstrumentedOracle`
*before* building the inner engine, so the wrapped oracle is the one the
inner engine holds and every oracle call — preprocessing and serving — is
counted and spanned.  Around the inner ``preprocess`` it activates its
:class:`~repro.obs.trace.TraceRecorder` as the ambient
:func:`~repro.obs.trace.stage_span` target, so the per-chunk hooks in
``data/dominance.py``, ``geometry/dual.py``, ``core/two_dim.py`` and
``core/approx.py`` land as children of the ``engine.preprocess`` span.

:class:`InstrumentedOracle` is a
:class:`~repro.fairness.oracle.CountingOracle`, so its call accounting is
the counter's own rule (one per ``is_satisfactory`` or ``verdict``, ``q``
per ``is_satisfactory_many`` batch, one per swept sector).  The incremental
protocol (``begin``/``apply_swap``/``verdict``) is counted but deliberately
*not* spanned per call: the 2-D sweep applies O(n²) swaps, and a span per
swap would cost more than the sweep itself — ``begin`` gets a span, the
per-swap traffic shows up as counters.  A bulk ``sweep_verdicts`` call gets
one span and counts what the per-swap loop would: one verdict per sector,
one swap per event.

The latency histograms ``engine.suggest_seconds`` and
``engine.suggest_many_seconds`` and the workload log's ``batch_elapsed``
are the durations of the ``engine.suggest`` / ``engine.suggest_many``
spans, so a call reads the recorder's clock twice and every report of it
agrees; ``clock=`` sets the clock of the default recorder.

Answers are bit-identical to the uninstrumented engine: instrumentation
only observes, and the oracle wrapper forwards verdicts unchanged.
Instrumented engines are not persistable (``to_payload`` raises — save the
inner engine and re-wrap on load, see :meth:`InstrumentedEngine.from_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.clock import Clock
from repro.core.engine import (
    EngineWrapper,
    as_weight_matrix,
    create_engine,
    default_engine_config,
    engine_name_for_config,
    register_engine,
)
from repro.exceptions import ConfigurationError
from repro.fairness.oracle import CountingOracle, FairnessOracle
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder, activated
from repro.obs.workload import WorkloadRecorder
from repro.ranking.scoring import LinearScoringFunction

__all__ = ["InstrumentedConfig", "InstrumentedEngine", "InstrumentedOracle"]


@dataclass(frozen=True)
class InstrumentedConfig:
    """Config of the ``"instrumented"`` engine.

    ``inner`` is any registered engine config (``None`` picks the facade
    default, :func:`~repro.core.engine.default_engine_config`).
    ``max_spans`` bounds the trace buffer; ``record_workload`` turns on the
    :class:`~repro.obs.workload.WorkloadRecorder`.
    """

    inner: Any = None
    max_spans: int = 10_000
    record_workload: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.inner, InstrumentedConfig):
            raise ConfigurationError(
                "instrumentation does not nest: the inner config of an "
                "InstrumentedConfig cannot itself be an InstrumentedConfig"
            )
        if self.inner is not None:
            engine_name_for_config(self.inner)
        if self.max_spans < 1:
            raise ConfigurationError(f"max_spans must be >= 1, got {self.max_spans}")


class InstrumentedOracle(CountingOracle):
    """A :class:`~repro.fairness.oracle.CountingOracle` that also meters and spans its calls.

    It extends only the counter's two hooks: ``_count`` mirrors every count
    into ``oracle.calls`` (labelled by ``method``), ``oracle.swaps`` and
    ``oracle.batches``, and ``_span`` opens a span per scalar call, batch,
    ``begin`` and whole sweep when a ``recorder`` is given.  Counting and
    forwarding stay the parent's, so the call totals are the parent's by
    construction, a batch is one ``is_satisfactory_many`` call and span
    whatever the inner oracle, and incremental and whole-sweep capability
    mirror the inner oracle.
    """

    def __init__(
        self,
        inner: FairnessOracle,
        *,
        metrics: MetricsRegistry | None = None,
        recorder: TraceRecorder | None = None,
    ) -> None:
        super().__init__(inner)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.recorder = recorder
        self._method_calls = {
            method: self.metrics.counter("oracle.calls", method=method)
            for method in ("is_satisfactory", "is_satisfactory_many", "verdict")
        }
        # Subclasses read the batch-row and swap counters by these names
        # (perfbench's MeteredOracle reports them as batch_rows and swaps).
        self._batched_calls = self._method_calls["is_satisfactory_many"]
        self._swap_calls = self.metrics.counter("oracle.swaps")
        self._batches = self.metrics.counter("oracle.batches")

    def _count(self, method: str, verdicts: int, swaps: int = 0) -> None:
        super()._count(method, verdicts, swaps)
        if verdicts:
            self._method_calls[method].inc(verdicts)
        if swaps:
            self._swap_calls.inc(swaps)
        if method == "is_satisfactory_many":
            self._batches.inc()

    def _span(self, name: str, **attributes):
        if self.recorder is None:
            return super()._span(name)
        return self.recorder.span(name, **attributes)

    def describe(self) -> str:
        return f"instrumented({self.inner.describe()})"


@register_engine("instrumented", InstrumentedConfig)
class InstrumentedEngine(EngineWrapper):
    """Observability wrapper around any inner engine; see the module docstring."""

    def __init__(
        self,
        dataset,
        oracle: FairnessOracle,
        config: InstrumentedConfig | None = None,
        *,
        engine=None,
        clock: Clock | None = None,
        recorder: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        config = config if config is not None else InstrumentedConfig()
        if not isinstance(config, InstrumentedConfig):
            raise ConfigurationError(
                f"InstrumentedEngine expects an InstrumentedConfig, "
                f"got {type(config).__name__}"
            )
        self.oracle = oracle
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.recorder = (
            recorder
            if recorder is not None
            else TraceRecorder(clock=clock, max_spans=config.max_spans)
        )
        self.instrumented_oracle = InstrumentedOracle(
            oracle, metrics=self.metrics, recorder=self.recorder
        )
        if engine is None:
            if config.inner is None:
                config = replace(config, inner=default_engine_config(dataset))
            self.inner = create_engine(dataset, self.instrumented_oracle, config.inner)
        else:
            # Wrapping an already-built engine (from_engine): rebind its
            # oracle, which its online answers read, so oracle accounting
            # keeps working on the load path.
            self.inner = engine
            engine.oracle = self.instrumented_oracle
        self.config = config
        self.workload: WorkloadRecorder | None = (
            WorkloadRecorder() if config.record_workload else None
        )
        self._suggest_calls = self.metrics.counter("engine.suggest", engine=self.inner.name)
        self._suggest_many_calls = self.metrics.counter(
            "engine.suggest_many", engine=self.inner.name
        )
        self._query_count = self.metrics.counter("engine.queries", engine=self.inner.name)
        self._latency = self.metrics.histogram("engine.suggest_seconds")
        self._batch_latency = self.metrics.histogram("engine.suggest_many_seconds")

    @classmethod
    def from_engine(
        cls,
        engine,
        *,
        record_workload: bool = False,
        max_spans: int = 10_000,
        clock: Clock | None = None,
        recorder: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "InstrumentedEngine":
        """Wrap an engine that already exists (e.g. one loaded from disk)."""
        config = InstrumentedConfig(
            inner=engine.config, max_spans=max_spans, record_workload=record_workload
        )
        return cls(
            engine.dataset,
            engine.oracle,
            config,
            engine=engine,
            clock=clock,
            recorder=recorder,
            metrics=metrics,
        )

    # ------------------------------------------------------------------ #
    # engine protocol
    # ------------------------------------------------------------------ #
    def preprocess(self, dataset=None, oracle=None) -> "InstrumentedEngine":
        """Preprocess the inner engine; a new oracle is committed only once it succeeds."""
        instrumented = None
        if oracle is not None:
            instrumented = InstrumentedOracle(
                oracle, metrics=self.metrics, recorder=self.recorder
            )
        with activated(self.recorder):
            with self.recorder.span("engine.preprocess", engine=self.inner.name):
                self.inner.preprocess(dataset, instrumented)
        if instrumented is not None:
            self.oracle, self.instrumented_oracle = oracle, instrumented
        self.metrics.counter("engine.preprocess", engine=self.inner.name).inc()
        return self

    def suggest(self, function: LinearScoringFunction):
        function = self._as_function(function)
        calls_before = self.instrumented_oracle.calls
        with activated(self.recorder):
            with self.recorder.span("engine.suggest", engine=self.inner.name) as span:
                result = self.inner.suggest(function)
        self._suggest_calls.inc()
        self._query_count.inc()
        self._latency.observe(span.duration)
        if self.workload is not None:
            self.workload.record_batch(
                np.asarray(function.weights, dtype=float),
                [result],
                engine=self.inner.name,
                elapsed=span.duration,
                oracle_calls=self.instrumented_oracle.calls - calls_before,
            )
        return result

    def suggest_many(self, weights_matrix) -> list:
        matrix = as_weight_matrix(weights_matrix, self.dataset.n_attributes)
        calls_before = self.instrumented_oracle.calls
        with activated(self.recorder):
            with self.recorder.span(
                "engine.suggest_many", engine=self.inner.name, q=int(matrix.shape[0])
            ) as span:
                results = self.inner.suggest_many(matrix)
        self._suggest_many_calls.inc()
        self._query_count.inc(int(matrix.shape[0]))
        self._batch_latency.observe(span.duration)
        if self.workload is not None:
            self.workload.record_batch(
                matrix,
                results,
                engine=self.inner.name,
                elapsed=span.duration,
                oracle_calls=self.instrumented_oracle.calls - calls_before,
            )
        return results

    def apply_delta(self, delta):
        """Forward a dataset delta to the inner engine, spanned and counted.

        The ``engine.apply_delta`` span wraps the inner engine's own
        ``maintenance.apply_delta`` span, so each delta records one span of
        that name.  The ``maintenance.apply_delta`` counter counts every
        call; the per-strategy counters (``maintenance.incremental`` /
        ``maintenance.rebuild`` / ``maintenance.noop``) split them by what
        the inner engine actually did, and ``maintenance.items_changed``
        accumulates the mutation volume.  Answers are untouched —
        instrumentation only observes.
        """
        with activated(self.recorder):
            with self.recorder.span(
                "engine.apply_delta",
                engine=self.inner.name,
                n_changes=delta.n_changes,
            ):
                report = self.inner.apply_delta(delta)
        self.metrics.counter("maintenance.apply_delta", engine=self.inner.name).inc()
        self.metrics.counter(
            f"maintenance.{report.strategy}", engine=self.inner.name
        ).inc()
        self.metrics.counter(
            "maintenance.items_changed", engine=self.inner.name
        ).inc(delta.n_changes)
        return report

    def _as_function(self, function) -> LinearScoringFunction:
        if isinstance(function, LinearScoringFunction):
            return function
        return LinearScoringFunction(tuple(np.asarray(function, dtype=float)))
