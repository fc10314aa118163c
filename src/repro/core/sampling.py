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
from repro.geometry.angles import to_weights
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


def validate_index_on_dataset(
    index: MDApproxIndex, dataset: Dataset, oracle: FairnessOracle | None = None
) -> SampleValidationReport:
    """Check every distinct assigned function of an index against a (full) dataset.

    This reproduces the §6.4 validation: order the full dataset by each
    function the sample-based preprocessing assigned to a cell, and count how
    many of those orderings the oracle accepts.  The orderings go to the
    oracle as one batch when it supports the batched protocol
    (:func:`repro.fairness.batched.as_batched`); black-box oracles are checked
    function by function, bit-identically.
    """
    oracle = oracle if oracle is not None else index.oracle
    distinct: list[np.ndarray] = []
    for angles in index.assigned_angles:
        if angles is None:
            continue
        if not any(np.allclose(angles, existing) for existing in distinct):
            distinct.append(np.asarray(angles, dtype=float))
    functions = [LinearScoringFunction(tuple(to_weights(angles))) for angles in distinct]
    verdicts = evaluate_functions_many(oracle, dataset, functions)
    return SampleValidationReport(
        n_functions_checked=len(distinct), n_satisfactory=int(np.sum(verdicts))
    )
