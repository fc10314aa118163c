"""Graceful degradation at the engine seam: the ordered fallback chain.

A production serving layer cannot let one failing pipeline take down a whole
batch.  :class:`FallbackEngine` is a :class:`~repro.core.engine.QueryEngine`
registered in the ordinary engine registry (name ``"fallback"``, configured
by :class:`FallbackConfig`) — per the PR-2 seam discipline, it is a
registered engine *wrapping* other registered engines, not a facade branch.
It runs an ordered chain of tiers (e.g. exact → approximate) and advances on
failure:

* ``suggest`` tries each tier in order and returns the first answer,
  recording which tier answered in :attr:`FallbackEngine.last_record`;
* ``suggest_many`` first tries the current tier's native batched path; if
  the *batch* call fails (one poisoned query used to kill the whole batch),
  the tier is retried **query by query**, so only genuinely faulted queries
  advance to the next tier.  Queries no tier could answer come back as
  structured :class:`QueryFailure` records — the call itself never raises
  for per-query faults;
* every batch leaves a :class:`BatchReport` (per-query tier attribution and
  error records) in :attr:`FallbackEngine.last_report`, and cumulative
  counters in :attr:`FallbackEngine.telemetry`, which
  :func:`repro.core.monitoring.error_budget_report` turns into an error
  budget.

Answers are produced by the tier engines themselves, so on non-faulted
queries they are bit-identical to the unwrapped engine — the chaos suite
(``tests/test_chaos.py``) asserts this invariant under seeded fault
injection.

Two deliberate pass-throughs: :class:`~repro.exceptions.NotPreprocessedError`
(a caller bug, not a dependency fault) and
:class:`~repro.exceptions.NoSatisfactoryFunctionError` (an *answer* about the
dataset — every tier would agree — not a failure to answer).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from repro.core.engine import (
    EngineWrapper,
    as_weight_matrix,
    create_engine,
    engine_name_for_config,
    register_engine,
)
from repro.core.result import SuggestionResult
from repro.data.dataset import Dataset
from repro.exceptions import (
    ConfigurationError,
    FallbackExhaustedError,
    NoSatisfactoryFunctionError,
    NotPreprocessedError,
)
from repro.fairness.oracle import FairnessOracle
from repro.obs.metrics import MetricsRegistry
from repro.ranking.scoring import LinearScoringFunction

__all__ = [
    "FallbackConfig",
    "TierError",
    "QueryRecord",
    "QueryFailure",
    "BatchReport",
    "FallbackTelemetry",
    "FallbackEngine",
]

#: Exceptions that carry meaning, not failure — never absorbed by the chain.
_PASS_THROUGH = (NotPreprocessedError, NoSatisfactoryFunctionError)


@dataclass(frozen=True)
class FallbackConfig:
    """Configuration of a fallback chain.

    Attributes
    ----------
    tiers:
        Ordered engine configs, tried first to last.  Empty selects the
        default chain for the dataset's dimensionality at construction time:
        ``(TwoDConfig(),)`` in 2-D, ``(ExactConfig(), ApproxConfig())``
        otherwise (exact answers preferred, grid approximation as the
        degraded tier).

    A tier whose preprocessing or maintenance fails is dropped from the chain
    (recorded in ``preprocess_errors``) as long as at least one tier survives.
    """

    tiers: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiers", tuple(self.tiers))
        for tier in self.tiers:
            if isinstance(tier, FallbackConfig):
                raise ConfigurationError("fallback chains cannot nest")
            # Raises ConfigurationError for non-engine configs.
            engine_name_for_config(tier)


@dataclass(frozen=True)
class TierError:
    """One tier's failure for one query (or for preprocessing)."""

    tier: str
    error_type: str
    message: str


@dataclass(frozen=True)
class QueryRecord:
    """Per-query serving record: who answered, and what failed on the way.

    ``tier`` is the registry name of the tier that answered (``None`` when no
    tier could), and ``errors`` lists the failures collected while getting
    there — empty for a query answered cleanly by the first tier.
    """

    index: int
    tier: str | None
    errors: tuple[TierError, ...] = ()

    @property
    def faulted(self) -> bool:
        """True when at least one tier failed for this query."""
        return bool(self.errors)

    @property
    def answered(self) -> bool:
        """True when some tier produced an answer."""
        return self.tier is not None


@dataclass(frozen=True)
class QueryFailure:
    """The structured per-query error record returned for unanswerable queries.

    Takes the place of a :class:`~repro.core.result.SuggestionResult` in the
    ``suggest_many`` output when every tier failed for that query, so the
    batch call never raises for per-query faults and the caller can tell
    exactly which queries died and why.
    """

    index: int
    weights: tuple[float, ...]
    errors: tuple[TierError, ...]

    @property
    def answered(self) -> bool:
        return False


@dataclass(frozen=True)
class BatchReport:
    """Per-batch serving report: one :class:`QueryRecord` per query."""

    records: tuple[QueryRecord, ...]

    @property
    def n_queries(self) -> int:
        return len(self.records)

    @property
    def n_faulted(self) -> int:
        """Queries that saw at least one tier failure."""
        return sum(1 for record in self.records if record.faulted)

    @property
    def n_unanswered(self) -> int:
        """Queries no tier could answer."""
        return sum(1 for record in self.records if not record.answered)

    @property
    def tiers_used(self) -> dict:
        """Answered-query counts per tier name."""
        counts: Counter = Counter(
            record.tier for record in self.records if record.tier is not None
        )
        return dict(counts)


class FallbackTelemetry:
    """Cumulative serving counters of a fallback engine, held in its metrics registry.

    The counters are the registry's ``fallback.queries``,
    ``fallback.failovers`` and ``fallback.unanswered`` series and the
    tier-labelled ``fallback.answered`` / ``fallback.tier_failures``
    families — pass ``metrics=`` to share a registry with an instrumented
    engine so the error budget and ``python -m repro.obs report`` read one
    counter source.  The five public fields are read-only views of those
    series (``answered_by`` and ``tier_failures`` as plain dicts in the
    registry's label order); every write is a ``record_*`` method that calls
    :meth:`~repro.obs.metrics.Counter.inc`, so no counter moves backwards.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queries = self.metrics.counter("fallback.queries")
        self._failovers = self.metrics.counter("fallback.failovers")
        self._unanswered = self.metrics.counter("fallback.unanswered")

    @property
    def n_queries(self) -> int:
        return self._queries.value

    @property
    def n_failovers(self) -> int:
        return self._failovers.value

    @property
    def n_unanswered(self) -> int:
        return self._unanswered.value

    @property
    def answered_by(self) -> dict:
        return self._by_tier("fallback.answered")

    @property
    def tier_failures(self) -> dict:
        return self._by_tier("fallback.tier_failures")

    def _by_tier(self, name: str) -> dict:
        return {
            dict(series.labels)["tier"]: series.value
            for series in self.metrics.counter_series(name)
        }

    def record_queries(self, count: int) -> None:
        self._queries.inc(count)

    def record_answer(self, tier: str, failover: bool = False, count: int = 1) -> None:
        """``count`` queries answered by ``tier``, after a failover when ``failover``."""
        self.metrics.counter("fallback.answered", tier=tier).inc(count)
        if failover:
            self._failovers.inc(count)

    def record_tier_failure(self, tier: str) -> None:
        self.metrics.counter("fallback.tier_failures", tier=tier).inc()

    def record_unanswered(self) -> None:
        self._unanswered.inc()

    def as_dict(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "n_failovers": self.n_failovers,
            "n_unanswered": self.n_unanswered,
            "answered_by": self.answered_by,
            "tier_failures": self.tier_failures,
        }


@register_engine("fallback", FallbackConfig)
class FallbackEngine(EngineWrapper):
    """The ordered-chain engine; see the module docstring for semantics.

    Its ``inner`` engine — the one the forwarded state (``dataset``,
    ``index``, ``journal``, ...) reads from — is the first active tier, or
    the first configured tier before :meth:`preprocess`.  As with every
    engine, a new oracle is committed only once :meth:`preprocess` succeeds.
    """

    def __init__(
        self,
        dataset: Dataset,
        oracle: FairnessOracle,
        config: FallbackConfig | None = None,
        *,
        engines=None,
        metrics=None,
    ) -> None:
        config = config if config is not None else FallbackConfig()
        if not isinstance(config, FallbackConfig):
            raise ConfigurationError(
                f"FallbackEngine expects a FallbackConfig, got {type(config).__name__}"
            )
        self.oracle = oracle
        if engines is None:
            config = replace(config, tiers=config.tiers or self._default_tiers(dataset))
            engines = tuple(create_engine(dataset, oracle, tier) for tier in config.tiers)
        engines = tuple(engines)
        if not engines:
            raise ConfigurationError("a fallback chain needs at least one tier")
        self.config = config
        self.engines = engines
        self._active: tuple[tuple[str, object], ...] | None = None
        self.preprocess_errors: tuple[TierError, ...] = ()
        self.telemetry = FallbackTelemetry(metrics=metrics)
        self.last_record: QueryRecord | None = None
        self._last_batch = None

    @staticmethod
    def _default_tiers(dataset: Dataset) -> tuple:
        from repro.core.engine import ApproxConfig, ExactConfig, TwoDConfig

        if dataset.n_attributes == 2:
            return (TwoDConfig(),)
        return (ExactConfig(), ApproxConfig())

    @staticmethod
    def _tier_label(position: int, engine) -> str:
        return f"{position}:{getattr(engine, 'name', type(engine).__name__)}"

    @classmethod
    def from_engines(cls, engines, *, metrics=None) -> "FallbackEngine":
        """Build a chain over already-constructed (possibly wrapped) engines.

        The engines' own configs stay authoritative; the first engine supplies
        the chain's dataset and oracle.  This is how pre-preprocessed tiers,
        chaos-wrapped tiers, or tiers over different samples enter a chain.
        """
        engines = tuple(engines)
        if not engines:
            raise ConfigurationError("a fallback chain needs at least one tier")
        first = engines[0]
        return cls(
            first.dataset,
            first.oracle,
            FallbackConfig(),
            engines=engines,
            metrics=metrics,
        )

    # ------------------------------------------------------------------ #
    # offline phase
    # ------------------------------------------------------------------ #
    def preprocess(self, dataset: Dataset | None = None, oracle: FairnessOracle | None = None):
        """Preprocess every tier; drop the tiers that fail.

        A bare ``preprocess()`` skips tiers that are already preprocessed
        (how :meth:`from_engines` adopts built tiers); passing a dataset or
        oracle re-preprocesses every tier on it.  The chain's oracle, active
        tiers and ``preprocess_errors`` change only when at least one tier
        succeeds.
        """
        rebind = dataset is not None or oracle is not None
        active: list[tuple[str, object]] = []
        errors: list[TierError] = []
        for position, engine in enumerate(self.engines):
            label = self._tier_label(position, engine)
            try:
                if rebind or not engine.is_preprocessed:
                    engine.preprocess(dataset, oracle)
                active.append((label, engine))
            except Exception as error:  # noqa: BLE001 — isolation is the point
                errors.append(TierError(label, type(error).__name__, str(error)))
        if not active:
            raise ConfigurationError(
                "every tier of the fallback chain failed to preprocess: "
                + "; ".join(f"{e.tier}: {e.message}" for e in errors)
            )
        if oracle is not None:
            self.oracle = oracle
        self.preprocess_errors = tuple(errors)
        self._active = tuple(active)
        return self

    @property
    def is_preprocessed(self) -> bool:
        return self._active is not None

    @property
    def inner(self):
        return self._active[0][1] if self._active is not None else self.engines[0]

    @property
    def active_tiers(self) -> tuple[str, ...]:
        """Labels of the tiers that survived preprocessing, in chain order."""
        return tuple(label for label, _ in self._active_chain())

    def _active_chain(self) -> tuple[tuple[str, object], ...]:
        if self._active is None:
            raise NotPreprocessedError("call preprocess() first")
        return self._active

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta):
        """Propagate a dataset delta to every active tier.

        Each tier maintains its own index through its own ``apply_delta``
        (incremental where supported, rebuild otherwise).  A tier whose
        maintenance fails is dropped from the chain — the same isolation
        discipline as preprocessing — and recorded in
        :attr:`preprocess_errors`.  The returned report is the primary (first
        surviving) tier's, with every tier's strategy in ``details``.
        """
        return self._maintain("apply_delta", lambda engine: engine.apply_delta(delta))

    def refresh(self):
        """Re-run the oracle-dependent stages of every active tier."""
        return self._maintain("refresh", lambda engine: engine.refresh())

    def _maintain(self, what: str, operation):
        survivors: list[tuple[str, object]] = []
        errors: list[TierError] = list(self.preprocess_errors)
        reports: list[tuple[str, object]] = []
        for label, engine in self._active_chain():
            try:
                reports.append((label, operation(engine)))
                survivors.append((label, engine))
            except _PASS_THROUGH:
                raise
            except Exception as error:  # noqa: BLE001 — isolation is the point
                errors.append(TierError(label, type(error).__name__, str(error)))
        if not survivors:
            raise ConfigurationError(
                f"every tier of the fallback chain failed to {what}: "
                + "; ".join(f"{e.tier}: {e.message}" for e in errors)
            )
        self.preprocess_errors = tuple(errors)
        self._active = tuple(survivors)
        primary = reports[0][1]
        from repro.core.maintenance import MaintenanceReport

        return MaintenanceReport(
            engine="fallback",
            strategy=primary.strategy,
            n_inserted=primary.n_inserted,
            n_deleted=primary.n_deleted,
            n_updated=primary.n_updated,
            staleness_fraction=primary.staleness_fraction,
            details={
                "tiers": {label: report.strategy for label, report in reports},
            },
        )

    # ------------------------------------------------------------------ #
    # online phase
    # ------------------------------------------------------------------ #
    def suggest(self, function: LinearScoringFunction) -> SuggestionResult:
        """Answer one query through the chain; raises only when every tier fails."""
        errors: list[TierError] = []
        self.telemetry.record_queries(1)
        for label, engine in self._active_chain():
            result = self._attempt(label, engine, function, errors)
            if result is not None:
                self.last_record = QueryRecord(0, label, tuple(errors))
                return result
        self.telemetry.record_unanswered()
        self.last_record = QueryRecord(0, None, tuple(errors))
        raise FallbackExhaustedError(
            f"all {len(self._active_chain())} tier(s) failed for this query: "
            + "; ".join(f"{e.tier}: {e.error_type}" for e in errors),
            attempts=tuple(errors),
        )

    def _attempt(
        self, label: str, engine, function: LinearScoringFunction, errors: list[TierError]
    ) -> SuggestionResult | None:
        """One query on one tier: its answer, or ``None`` once its failure is in ``errors``.

        The answer or the :class:`TierError` goes into the telemetry.
        """
        try:
            result = engine.suggest(function)
        except _PASS_THROUGH:
            raise
        except Exception as error:  # noqa: BLE001 — isolation is the point
            errors.append(TierError(label, type(error).__name__, str(error)))
            self.telemetry.record_tier_failure(label)
            return None
        self.telemetry.record_answer(label, failover=bool(errors))
        return result

    def suggest_many(self, weights_matrix):
        """Answer a batch with per-query fault isolation.

        Returns one entry per input row: a
        :class:`~repro.core.result.SuggestionResult` (bit-identical to what
        the answering tier's own ``suggest_many`` returns) or, for queries
        every tier failed on, a :class:`QueryFailure`.  Never raises for
        per-query faults; see the module docstring for the two pass-through
        exception types.
        """
        matrix = as_weight_matrix(weights_matrix, self.dataset.n_attributes)
        chain = self._active_chain()
        q = matrix.shape[0]
        self.telemetry.record_queries(q)

        # Happy path: the first tier answers the whole batch natively.  Kept
        # allocation-free beyond the call itself so wrapping an engine in a
        # single-tier chain costs O(1) on top of the raw batch call.
        first_label, first_engine = chain[0]
        try:
            answers = first_engine.suggest_many(matrix)
        except _PASS_THROUGH:
            raise
        except Exception:  # noqa: BLE001 — fall through to isolation below
            pass
        else:
            self.telemetry.record_answer(first_label, count=q)
            self._last_batch = (q, first_label)
            return answers

        # Isolation path: at least one query (or the tier itself) is bad.
        results: list = [None] * q
        errors: list[list[TierError]] = [[] for _ in range(q)]
        tiers_of: list[str | None] = [None] * q

        # Rows that cannot even become scoring functions are poisoned input:
        # they fail identically on every tier, so record them once and skip.
        functions: list[LinearScoringFunction | None] = [None] * q
        pending: list[int] = []
        for row in range(q):
            try:
                functions[row] = LinearScoringFunction(tuple(matrix[row].tolist()))
                pending.append(row)
            except Exception as error:  # noqa: BLE001
                errors[row].append(TierError("query", type(error).__name__, str(error)))

        for tier_position, (label, engine) in enumerate(chain):
            if not pending:
                break
            if tier_position == 0:
                # The first tier's batch call already failed above — go
                # straight to query-by-query instead of repeating it.
                answers = None
            else:
                try:
                    answers = engine.suggest_many(matrix[np.asarray(pending)])
                except _PASS_THROUGH:
                    raise
                except Exception:  # noqa: BLE001 — retry query-by-query
                    answers = None
            if answers is not None:
                for position, answer in zip(pending, answers):
                    results[position] = answer
                    tiers_of[position] = label
                    self.telemetry.record_answer(label, failover=bool(errors[position]))
                pending = []
                break
            still_pending: list[int] = []
            for position in pending:
                answer = self._attempt(label, engine, functions[position], errors[position])
                if answer is None:
                    still_pending.append(position)
                else:
                    results[position] = answer
                    tiers_of[position] = label
            pending = still_pending

        output: list = []
        records: list[QueryRecord] = []
        for position in range(q):
            records.append(
                QueryRecord(position, tiers_of[position], tuple(errors[position]))
            )
            if results[position] is None:
                self.telemetry.record_unanswered()
                output.append(
                    QueryFailure(
                        position,
                        tuple(matrix[position].tolist()),
                        tuple(errors[position]),
                    )
                )
            else:
                output.append(results[position])
        self._last_batch = BatchReport(tuple(records))
        return output

    @property
    def last_report(self) -> BatchReport | None:
        """The per-query report of the most recent ``suggest_many`` batch.

        Materialised lazily: the happy path stores only ``(q, tier)`` and the
        full record tuple is built on first access.
        """
        if self._last_batch is None:
            return None
        if not isinstance(self._last_batch, BatchReport):
            q, label = self._last_batch
            self._last_batch = BatchReport(
                tuple(QueryRecord(position, label) for position in range(q))
            )
        return self._last_batch
