"""The stable batched-ordering reference for :func:`repro.ranking.scoring.order_many`.

The production kernel orders every row with NumPy's default (unstable)
argsort and re-sorts stably only the rows whose scores tie; this reference
scores the whole batch with the same stacked matmul and orders every row with
one stable argsort, ties broken by ascending item index.  Tests compare the
two with ``==``: the kernel must reproduce this reference bit for bit, and
``tests/differential.py::stable_orderings`` serves whole engines from it.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ScoringFunctionError

__all__ = ["order_many_stable"]


def order_many_stable(dataset: Dataset, weight_matrix: np.ndarray) -> np.ndarray:
    """Stacked-matmul scores and one stable axis argsort: the reference of ``order_many``."""
    weight_matrix = np.asarray(weight_matrix, dtype=float)
    if weight_matrix.ndim != 2 or weight_matrix.shape[1] != dataset.n_attributes:
        raise ScoringFunctionError(
            f"order_many expects a (q, {dataset.n_attributes}) weight matrix, "
            f"got shape {weight_matrix.shape}"
        )
    score_matrix = np.matmul(
        dataset.scores[None, :, :], weight_matrix[:, :, None]
    )[..., 0]
    return np.argsort(-score_matrix, axis=1, kind="stable")
