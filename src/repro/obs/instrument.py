"""The ``"instrumented"`` engine: spans, metrics and workload recording
around any inner engine, plus the matching :class:`InstrumentedOracle`.

:class:`InstrumentedEngine` registers through the :mod:`repro.core.engine`
seam (same composite pattern as
:class:`~repro.resilience.fallback.FallbackEngine` — a serving-layer
wrapper, not a facade branch), so
``FairRankingDesigner(dataset, oracle, InstrumentedConfig(inner=...))``
works unchanged.  It wraps the oracle in an :class:`InstrumentedOracle`
*before* building the inner engine, so the wrapped oracle is the one the
inner index stores and every oracle call — preprocessing and serving — is
counted and spanned.  Around the inner ``preprocess`` it activates its
:class:`~repro.obs.trace.TraceRecorder` as the ambient
:func:`~repro.obs.trace.stage_span` target, so the per-chunk hooks in
``data/dominance.py``, ``geometry/dual.py``, ``core/two_dim.py`` and
``core/approx.py`` land as children of the ``engine.preprocess`` span.

Call accounting is arithmetic-identical to
:class:`~repro.fairness.oracle.CountingOracle` (one per ``is_satisfactory``
or ``verdict``, ``q`` per ``is_satisfactory_many`` batch) and is
test-asserted equal.  The incremental protocol (``begin``/``apply_swap``/
``verdict``) is counted but deliberately *not* spanned per call: the 2-D
sweep applies O(n²) swaps, and a span per swap would cost more than the
sweep itself — ``begin`` gets a span, the per-swap traffic shows up as
counters.  A bulk ``sweep_verdicts`` call gets one span and counts what the
per-swap loop would: one verdict per sector, one swap per event.

Answers are bit-identical to the uninstrumented engine: instrumentation
only observes, and the oracle wrapper forwards verdicts unchanged.
Instrumented engines are not persistable (``to_payload`` raises — save the
inner engine and re-wrap on load, see :meth:`InstrumentedEngine.from_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from repro.clock import Clock, monotonic_clock
from repro.core.engine import (
    EngineWrapper,
    as_weight_matrix,
    create_engine,
    default_engine_config,
    engine_name_for_config,
    register_engine,
)
from repro.exceptions import ConfigurationError, OracleError
from repro.fairness.batched import as_batched, evaluate_many, ordering_matrix
from repro.fairness.incremental import as_incremental
from repro.fairness.oracle import FairnessOracle
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


class InstrumentedOracle(FairnessOracle):
    """Counts and spans every oracle call, forwarding verdicts unchanged.

    Call totals are arithmetic-identical to
    :class:`~repro.fairness.oracle.CountingOracle`: +1 per
    ``is_satisfactory`` / ``verdict``, +q per ``is_satisfactory_many``
    batch, +1 per sector of a ``sweep_verdicts`` call.  Batched and
    incremental capability mirror the inner oracle.
    """

    def __init__(
        self,
        inner: FairnessOracle,
        *,
        metrics: MetricsRegistry | None = None,
        recorder: TraceRecorder | None = None,
    ) -> None:
        if not isinstance(inner, FairnessOracle):
            raise OracleError(
                f"InstrumentedOracle wraps a FairnessOracle, got {type(inner).__name__}"
            )
        self.inner = inner
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.recorder = recorder
        self.calls = 0
        self._incremental_delegate = None
        self._scalar_calls = self.metrics.counter("oracle.calls", method="is_satisfactory")
        self._batched_calls = self.metrics.counter(
            "oracle.calls", method="is_satisfactory_many"
        )
        self._verdict_calls = self.metrics.counter("oracle.calls", method="verdict")
        self._swap_calls = self.metrics.counter("oracle.swaps")
        self._batches = self.metrics.counter("oracle.batches")

    # -- scalar and batched verdicts ------------------------------------ #
    def is_satisfactory(self, ordering: np.ndarray, dataset) -> bool:
        self.calls += 1
        self._scalar_calls.inc()
        if self.recorder is None:
            return self.inner.is_satisfactory(ordering, dataset)
        with self.recorder.span("oracle.is_satisfactory"):
            return self.inner.is_satisfactory(ordering, dataset)

    def is_satisfactory_many(self, orderings: np.ndarray, dataset) -> np.ndarray:
        orderings = ordering_matrix(orderings)
        self.calls += int(orderings.shape[0])
        self._batched_calls.inc(int(orderings.shape[0]))
        self._batches.inc()
        if self.recorder is None:
            return evaluate_many(self.inner, orderings, dataset)
        with self.recorder.span("oracle.is_satisfactory_many", q=int(orderings.shape[0])):
            return evaluate_many(self.inner, orderings, dataset)

    def batched_capable(self) -> bool:
        return as_batched(self.inner) is not None

    # -- incremental protocol (counted, not spanned per swap) ----------- #
    def incremental_capable(self) -> bool:
        return as_incremental(self.inner) is not None

    def _incremental_inner(self):
        if self._incremental_delegate is None:
            raise OracleError(
                f"{self.describe()} wraps a black-box oracle without the "
                "incremental protocol; call begin() on an incremental-capable "
                "oracle before apply_swap()/verdict()"
            )
        return self._incremental_delegate

    def begin(self, ordering: np.ndarray, dataset) -> None:
        delegate = as_incremental(self.inner)
        if delegate is None:
            raise OracleError(
                f"{self.describe()} wraps a black-box oracle without the "
                "incremental protocol"
            )
        self._incremental_delegate = delegate
        if self.recorder is None:
            delegate.begin(ordering, dataset)
            return
        with self.recorder.span("oracle.begin"):
            delegate.begin(ordering, dataset)

    def apply_swap(self, pos_i: int, pos_j: int) -> None:
        self._swap_calls.inc()
        self._incremental_inner().apply_swap(pos_i, pos_j)

    def verdict(self) -> bool:
        self.calls += 1
        self._verdict_calls.inc()
        return self._incremental_inner().verdict()

    def sweep_verdicts(
        self,
        low: np.ndarray,
        leaving: np.ndarray,
        entering: np.ndarray,
        judge_at: np.ndarray,
    ) -> np.ndarray:
        """A whole sweep at once, counted as its sectors' verdicts and its events' swaps."""
        delegate = self._incremental_inner()
        self.calls += int(judge_at.size)
        self._verdict_calls.inc(int(judge_at.size))
        self._swap_calls.inc(int(low.size))
        if self.recorder is None:
            return delegate.sweep_verdicts(low, leaving, entering, judge_at)
        with self.recorder.span(
            "oracle.sweep_verdicts", n_sectors=int(judge_at.size), n_events=int(low.size)
        ):
            return delegate.sweep_verdicts(low, leaving, entering, judge_at)

    # -- bookkeeping ----------------------------------------------------- #
    def reset(self) -> None:
        """Zero the plain call count (metrics counters are left cumulative)."""
        self.calls = 0

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
        self._clock: Clock = clock if clock is not None else monotonic_clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.recorder = (
            recorder
            if recorder is not None
            else TraceRecorder(clock=self._clock, max_spans=config.max_spans)
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
            # oracle — and the one its index captured, when it captured one —
            # so oracle accounting keeps working on the load path.
            self.inner = engine
            engine.oracle = self.instrumented_oracle
            index = getattr(engine, "_index", None)
            if index is not None and hasattr(index, "oracle"):
                index.oracle = self.instrumented_oracle
        self.config = config
        self.workload: WorkloadRecorder | None = (
            WorkloadRecorder() if config.record_workload else None
        )
        self._unify_inner_telemetry()
        self._suggest_calls = self.metrics.counter("engine.suggest", engine=self.inner.name)
        self._suggest_many_calls = self.metrics.counter(
            "engine.suggest_many", engine=self.inner.name
        )
        self._query_count = self.metrics.counter("engine.queries", engine=self.inner.name)
        self._latency = self.metrics.histogram("engine.suggest_seconds")
        self._batch_latency = self.metrics.histogram("engine.suggest_many_seconds")

    def _unify_inner_telemetry(self) -> None:
        """Point a fallback inner's telemetry at this engine's registry.

        Done immediately after construction (the telemetry is still all
        zero), so the error budget and the obs report read one counter
        source instead of double counting.
        """
        if self.telemetry is None:
            return
        from repro.resilience.fallback import FallbackTelemetry

        self.inner.telemetry = FallbackTelemetry(metrics=self.metrics)

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
        started = self._clock()
        with activated(self.recorder):
            with self.recorder.span("engine.suggest", engine=self.inner.name):
                result = self.inner.suggest(function)
        elapsed = self._clock() - started
        self._suggest_calls.inc()
        self._query_count.inc()
        self._latency.observe(elapsed)
        if self.workload is not None:
            self.workload.record_batch(
                np.asarray(function.weights, dtype=float),
                [result],
                engine=self.inner.name,
                tiers=[self._answering_tier()],
                elapsed=elapsed,
                oracle_calls=self.instrumented_oracle.calls - calls_before,
            )
        return result

    def suggest_many(self, weights_matrix) -> list:
        matrix = as_weight_matrix(weights_matrix, self.dataset.n_attributes)
        calls_before = self.instrumented_oracle.calls
        started = self._clock()
        with activated(self.recorder):
            with self.recorder.span(
                "engine.suggest_many", engine=self.inner.name, q=int(matrix.shape[0])
            ):
                results = self.inner.suggest_many(matrix)
        elapsed = self._clock() - started
        self._suggest_many_calls.inc()
        self._query_count.inc(int(matrix.shape[0]))
        self._batch_latency.observe(elapsed)
        if self.workload is not None:
            self.workload.record_batch(
                matrix,
                results,
                engine=self.inner.name,
                tiers=self._batch_tiers(len(results)),
                elapsed=elapsed,
                oracle_calls=self.instrumented_oracle.calls - calls_before,
            )
        return results

    def apply_delta(self, delta):
        """Forward a dataset delta to the inner engine, spanned and counted.

        ``maintenance.apply_delta`` counts every call; the per-strategy
        counters (``maintenance.incremental`` / ``maintenance.rebuild`` /
        ``maintenance.noop``) split them by what the inner engine actually
        did, and ``maintenance.items_changed`` accumulates the mutation
        volume.  Answers are untouched — instrumentation only observes.
        """
        with activated(self.recorder):
            with self.recorder.span(
                "maintenance.apply_delta",
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

    def refresh(self):
        """Forward a refresh to the inner engine, spanned and counted."""
        with activated(self.recorder):
            with self.recorder.span("maintenance.refresh", engine=self.inner.name):
                report = self.inner.refresh()
        self.metrics.counter("maintenance.refresh", engine=self.inner.name).inc()
        return report

    def _as_function(self, function) -> LinearScoringFunction:
        if isinstance(function, LinearScoringFunction):
            return function
        return LinearScoringFunction(tuple(np.asarray(function, dtype=float)))

    def _answering_tier(self) -> str | None:
        record = self.last_record
        if record is not None:
            return record.tier
        return self.inner.name

    def _batch_tiers(self, size: int) -> Sequence[str | None]:
        report = self.last_report
        if report is not None and len(report.records) == size:
            return [record.tier for record in report.records]
        return [self.inner.name] * size

    # ------------------------------------------------------------------ #
    # fallback-chain state, read through
    # ------------------------------------------------------------------ #
    @property
    def last_record(self):
        return getattr(self.inner, "last_record", None)

    @property
    def last_report(self):
        return getattr(self.inner, "last_report", None)

    @property
    def telemetry(self):
        return getattr(self.inner, "telemetry", None)
