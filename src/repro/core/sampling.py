"""Sampling-based preprocessing for large datasets (§5.4).

Preprocessing cost grows quickly with the number of items because the number
of exchange hyperplanes is quadratic in ``n``.  The paper's remedy is to run
the offline phase on a *uniform sample*: the sample preserves the distribution
of scoring and type attributes, so a function that is satisfactory on the
sample is expected to be satisfactory on the full data.  §6.4 validates this
on the 1.3M-row DOT dataset by checking every cell's assigned function against
the full dataset — all of them pass.  An engine config with ``sample_size``
set (e.g. ``ApproxConfig(sample_size=1000)``) runs the pipeline on such a
sample — or on the whole dataset when it has no more items than that — and
:func:`validate_index_on_dataset` reproduces the validation step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.approx import MDApproxIndex
from repro.data.dataset import Dataset
from repro.fairness.batched import evaluate_functions_many
from repro.fairness.oracle import FairnessOracle
from repro.geometry.angles import to_weights_many
from repro.ranking.scoring import LinearScoringFunction

__all__ = ["SampleValidationReport", "validate_index_on_dataset"]


@dataclass(frozen=True)
class SampleValidationReport:
    """Outcome of validating a sample-built index against the full dataset."""

    n_functions_checked: int
    n_satisfactory: int

    @property
    def fraction_satisfactory(self) -> float:
        """Fraction of assigned functions that are satisfactory on the full data."""
        if self.n_functions_checked == 0:
            return 0.0
        return self.n_satisfactory / self.n_functions_checked

    @property
    def all_satisfactory(self) -> bool:
        """True if every checked function passed on the full dataset (the §6.4 outcome)."""
        return self.n_functions_checked > 0 and self.n_satisfactory == self.n_functions_checked


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The rows that are not ``np.allclose`` to an earlier kept row, in order.

    A greedy pass where the first kept row wins: a row is dropped when
    ``|row - kept| <= 1e-8 + 1e-5 |kept|``, ``np.allclose``'s test, holds on
    every coordinate for some row kept before it.  Each row is compared with
    every kept row at once.
    """
    kept = np.empty_like(rows)
    n_kept = 0
    for row in rows:
        earlier = kept[:n_kept]
        if not np.any(np.all(np.abs(row - earlier) <= 1e-8 + 1e-5 * np.abs(earlier), axis=1)):
            kept[n_kept] = row
            n_kept += 1
    return kept[:n_kept]


def validate_index_on_dataset(
    index: MDApproxIndex, dataset: Dataset, oracle: FairnessOracle
) -> SampleValidationReport:
    """Check every distinct assigned function of an index against a (full) dataset.

    This reproduces the §6.4 validation: order the full dataset by each
    function the sample-based preprocessing assigned to a cell, and count how
    many of those orderings the oracle accepts.  The orderings go to the
    oracle as one batch (:func:`repro.fairness.batched.evaluate_functions_many`),
    with the verdicts and call totals of a per-function loop.
    """
    assigned = [angles for angles in index.assigned_angles if angles is not None]
    rows = np.asarray(assigned, dtype=float).reshape(-1, index.partition.dimension)
    distinct = _distinct_rows(rows)
    weights = to_weights_many(distinct)
    functions = [LinearScoringFunction(tuple(row)) for row in weights.tolist()]
    verdicts = evaluate_functions_many(oracle, dataset, functions, weight_matrix=weights)
    return SampleValidationReport(
        n_functions_checked=len(distinct), n_satisfactory=int(np.sum(verdicts))
    )
