"""Index freshness monitoring and refresh under data drift.

The paper's introduction anticipates that a designed ranking function will be
reused "for each dataset that follows" as long as the value distribution does
not change too much, and that the designer "may still wish to verify that we
continue to meet the required criteria, and adjust our ranking function if
needed".  This module implements that verification step for a deployed index:

* :func:`check_approx_index_freshness` re-evaluates the function assigned to
  each cell of an :class:`~repro.core.approx.MDApproxIndex` against a *new*
  dataset snapshot and reports which cells went stale;
* :func:`check_two_d_index_freshness` does the same for a 2-D index by probing
  the interior of every satisfactory interval;
* :func:`check_engine_freshness` dispatches either check through the
  :class:`~repro.core.engine.QueryEngine` seam, so monitors need not know
  which index kind an engine serves;
* :func:`refresh_if_stale` closes the loop: when a check finds stale
  assignments it drives the engine's ``refresh()`` hook, which re-runs the
  oracle-dependent stages — over the cached exchange arrays on a 2-D
  engine, as a full rebuild on a grid (a new dataset snapshot is indexed
  with ``engine.preprocess(new_dataset)``);
* :func:`error_budget_report` summarises a fallback engine's serving
  telemetry (see :mod:`repro.resilience.fallback`) as an error budget —
  freshness watches the *data*, the error budget watches the *serving path*.
  Since the observability layer landed, ``FallbackTelemetry`` keeps its
  counts in a :class:`~repro.obs.metrics.MetricsRegistry` (series
  ``fallback.*``), so the error budget and an obs metrics snapshot read the
  same counter source; this function's duck-typed view is unchanged.

Cell-level freshness is deliberately finer-grained than the §5.4 sample
validation in :mod:`repro.core.sampling`, which checks *distinct functions*;
here the unit is the cell, because an online service answers queries per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.approx import MDApproxIndex
from repro.core.two_dim import TwoDIndex
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.fairness.batched import evaluate_functions_many
from repro.fairness.oracle import FairnessOracle
from repro.geometry.angles import to_weights
from repro.ranking.scoring import LinearScoringFunction

__all__ = [
    "FreshnessReport",
    "check_approx_index_freshness",
    "check_two_d_index_freshness",
    "check_engine_freshness",
    "refresh_if_stale",
    "ErrorBudgetReport",
    "error_budget_report",
]


@dataclass(frozen=True)
class FreshnessReport:
    """Result of re-checking an index against a new dataset snapshot.

    Attributes
    ----------
    n_checked:
        Number of cells (or intervals) whose assigned function was re-checked.
    n_stale:
        How many of them no longer satisfy the oracle on the new data.
    stale_indices:
        The cell indices (or interval positions) that went stale, in order.
    oracle_calls:
        Number of oracle evaluations spent on the check.
    """

    n_checked: int
    n_stale: int
    stale_indices: tuple[int, ...]
    oracle_calls: int

    @property
    def fraction_stale(self) -> float:
        """Share of checked assignments that went stale (0 when nothing was checked)."""
        if self.n_checked == 0:
            return 0.0
        return self.n_stale / self.n_checked

    @property
    def is_fresh(self) -> bool:
        """True if every checked assignment still satisfies the oracle."""
        return self.n_stale == 0

    def as_dict(self) -> dict:
        """JSON-compatible snapshot (for dashboards, next to the error budget)."""
        return {
            "n_checked": self.n_checked,
            "n_stale": self.n_stale,
            "stale_indices": list(self.stale_indices),
            "oracle_calls": self.oracle_calls,
            "fraction_stale": self.fraction_stale,
            "is_fresh": self.is_fresh,
        }


@dataclass(frozen=True)
class ErrorBudgetReport:
    """Serving health of a fallback engine against an availability budget.

    Built from a :class:`~repro.resilience.fallback.FallbackTelemetry`
    snapshot: the *error rate* is the fraction of queries no tier could
    answer, the *failover rate* the fraction that needed a non-first tier.
    ``budget`` is the tolerated error rate (an SLO like "99% of queries get
    an answer" is ``budget=0.01``).
    """

    n_queries: int
    n_failovers: int
    n_unanswered: int
    budget: float
    answered_by: dict
    tier_failures: dict

    @property
    def error_rate(self) -> float:
        """Fraction of queries that went entirely unanswered."""
        if self.n_queries == 0:
            return 0.0
        return self.n_unanswered / self.n_queries

    @property
    def failover_rate(self) -> float:
        """Fraction of queries answered by a tier other than the first."""
        if self.n_queries == 0:
            return 0.0
        return self.n_failovers / self.n_queries

    @property
    def budget_remaining(self) -> float:
        """Unused share of the budget (negative once the budget is blown)."""
        return self.budget - self.error_rate

    @property
    def within_budget(self) -> bool:
        """True while the unanswered-query rate stays at or under the budget."""
        return self.error_rate <= self.budget

    def as_dict(self) -> dict:
        """JSON-compatible snapshot (for dashboards, next to freshness)."""
        return {
            "n_queries": self.n_queries,
            "n_failovers": self.n_failovers,
            "n_unanswered": self.n_unanswered,
            "budget": self.budget,
            "error_rate": self.error_rate,
            "failover_rate": self.failover_rate,
            "within_budget": self.within_budget,
            "answered_by": dict(self.answered_by),
            "tier_failures": dict(self.tier_failures),
        }


def error_budget_report(engine, budget: float = 0.01) -> ErrorBudgetReport:
    """Summarise a fallback engine's cumulative telemetry as an error budget.

    Duck-typed on ``engine.telemetry`` (any object with the
    :class:`~repro.resilience.fallback.FallbackTelemetry` counters), so
    monitoring stays decoupled from the resilience package.
    """
    if not 0.0 <= budget <= 1.0:
        raise ConfigurationError(f"budget must be in [0, 1], got {budget!r}")
    telemetry = getattr(engine, "telemetry", None)
    if telemetry is None:
        raise ConfigurationError(
            f"{type(engine).__name__} exposes no serving telemetry; error budgets "
            "are reported for fallback engines (see repro.resilience)"
        )
    return ErrorBudgetReport(
        n_queries=telemetry.n_queries,
        n_failovers=telemetry.n_failovers,
        n_unanswered=telemetry.n_unanswered,
        budget=float(budget),
        answered_by=dict(telemetry.answered_by),
        tier_failures=dict(telemetry.tier_failures),
    )


def check_approx_index_freshness(
    index: MDApproxIndex,
    dataset: Dataset,
    oracle: FairnessOracle | None = None,
    sample_cells: int | None = None,
    seed: int | None = 0,
) -> FreshnessReport:
    """Re-check the per-cell assignments of an approximate index on new data.

    Parameters
    ----------
    index:
        A preprocessed approximate index.
    dataset:
        The new dataset snapshot (same scoring attributes as the index's).
    oracle:
        Oracle to check against; defaults to the index's own oracle.
    sample_cells:
        If given, only a uniform random subset of this many assigned cells is
        checked — enough for a quick health check on very fine grids.
    seed:
        Seed of the cell subsample.
    """
    if dataset.n_attributes != index.dataset.n_attributes:
        raise ConfigurationError(
            "the new dataset must have the same scoring attributes as the indexed one"
        )
    oracle = oracle if oracle is not None else index.oracle
    assigned_cells = [
        cell_index
        for cell_index, angles in enumerate(index.assigned_angles)
        if angles is not None
    ]
    if sample_cells is not None and sample_cells < len(assigned_cells):
        if sample_cells < 1:
            raise ConfigurationError("sample_cells must be at least 1")
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(assigned_cells), size=sample_cells, replace=False)
        assigned_cells = sorted(assigned_cells[position] for position in chosen)

    # One batched refresh check when the oracle supports the batched protocol
    # (one ordering matrix, one is_satisfactory_many); black-box oracles are
    # re-checked cell by cell, bit-identically, with the same call count.
    functions = [
        LinearScoringFunction(
            tuple(to_weights(np.asarray(index.assigned_angles[cell_index], dtype=float)))
        )
        for cell_index in assigned_cells
    ]
    verdicts = evaluate_functions_many(oracle, dataset, functions)
    stale = [cell_index for cell_index, ok in zip(assigned_cells, verdicts) if not ok]
    return FreshnessReport(
        n_checked=len(assigned_cells),
        n_stale=len(stale),
        stale_indices=tuple(stale),
        oracle_calls=len(assigned_cells),
    )


def check_two_d_index_freshness(
    index: TwoDIndex,
    dataset: Dataset,
    oracle: FairnessOracle,
    probes_per_interval: int = 3,
) -> FreshnessReport:
    """Re-check a 2-D index by probing interior angles of every satisfactory interval.

    An interval is stale when *any* of its probes is rejected by the oracle on
    the new data (the conservative reading: the interval can no longer be
    served as uniformly satisfactory).

    Parameters
    ----------
    index:
        The 2-D ray-sweep index.
    dataset:
        The new dataset snapshot (must have two scoring attributes).
    oracle:
        The fairness oracle to check against.
    probes_per_interval:
        Number of evenly spaced interior angles probed per interval.
    """
    if dataset.n_attributes != 2:
        raise ConfigurationError("a 2-D index is checked against a 2-attribute dataset")
    if probes_per_interval < 1:
        raise ConfigurationError("probes_per_interval must be at least 1")
    stale: list[int] = []
    oracle_calls = 0
    for position, interval in enumerate(index.intervals):
        fractions = [
            (probe + 1) / (probes_per_interval + 1) for probe in range(probes_per_interval)
        ]
        interval_ok = True
        for fraction in fractions:
            angle = interval.start + fraction * (interval.end - interval.start)
            function = LinearScoringFunction((math.cos(angle), math.sin(angle)))
            oracle_calls += 1
            if not oracle.evaluate_function(function, dataset):
                interval_ok = False
                break
        if not interval_ok:
            stale.append(position)
    return FreshnessReport(
        n_checked=len(index.intervals),
        n_stale=len(stale),
        stale_indices=tuple(stale),
        oracle_calls=oracle_calls,
    )


def check_engine_freshness(
    engine,
    dataset: Dataset | None = None,
    *,
    oracle: FairnessOracle | None = None,
    sample_cells: int | None = None,
    probes_per_interval: int = 3,
    seed: int | None = 0,
) -> FreshnessReport:
    """Re-check a preprocessed engine's index through the engine seam.

    Dispatches on the engine's index kind: 2-D engines get
    :func:`check_two_d_index_freshness`, approximate engines
    :func:`check_approx_index_freshness`.  Exact engines have no freshness
    notion — every region carries an oracle verdict for the *build* dataset
    and a drifted dataset demands an :meth:`apply_delta` — so they raise
    :class:`~repro.exceptions.ConfigurationError`.

    Parameters
    ----------
    engine:
        A preprocessed :class:`~repro.core.engine.QueryEngine`.
    dataset:
        Snapshot to check against; defaults to the engine's current dataset
        (useful after the oracle's criteria drifted rather than the data).
    oracle:
        Oracle to check with; defaults to the engine's oracle.
    sample_cells, seed:
        Forwarded to the approximate check.
    probes_per_interval:
        Forwarded to the 2-D check.

    Raises
    ------
    NotPreprocessedError
        If the engine has not been preprocessed (reading its ``index``
        raises it).
    ConfigurationError
        If the engine serves an index kind without a freshness check.
    """
    index = engine.index
    dataset = dataset if dataset is not None else engine.dataset
    oracle = oracle if oracle is not None else engine.oracle
    if isinstance(index, TwoDIndex):
        return check_two_d_index_freshness(
            index, dataset, oracle, probes_per_interval=probes_per_interval
        )
    if isinstance(index, MDApproxIndex):
        return check_approx_index_freshness(
            index, dataset, oracle=oracle, sample_cells=sample_cells, seed=seed
        )
    raise ConfigurationError(
        f"engine {getattr(engine, 'name', '?')!r} serves a "
        f"{type(index).__name__}, which has no freshness check; exact indexes "
        "are maintained through apply_delta()"
    )


def refresh_if_stale(
    engine,
    *,
    oracle: FairnessOracle | None = None,
    sample_cells: int | None = None,
    probes_per_interval: int = 3,
    seed: int | None = 0,
):
    """Check an engine's freshness and drive a refresh when stale.

    The refresh goes through the engine seam
    (:meth:`~repro.core.engine.QueryEngine.refresh`), which re-runs the
    oracle-dependent stages.  A 2-D engine reuses its cached exchange arrays,
    so its refresh skips the exchange build; an approximate engine rebuilds
    in full, since ``MARKCELL``'s oracle probes dominate its preprocessing.
    Only these two families have a freshness check.

    Returns
    -------
    (FreshnessReport, MaintenanceReport | None)
        The freshness report, and the maintenance report of the refresh when
        one ran (``None`` when the index was fresh).

    Raises
    ------
    NotPreprocessedError
        If the engine has not been preprocessed, as
        :func:`check_engine_freshness` raises it.
    """
    report = check_engine_freshness(
        engine,
        oracle=oracle,
        sample_cells=sample_cells,
        probes_per_interval=probes_per_interval,
        seed=seed,
    )
    if report.is_fresh:
        return report, None
    return report, engine.refresh()

