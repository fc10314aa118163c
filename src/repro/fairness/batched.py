"""Batch entry points: one oracle verdict per ordering of a stack.

Line 1 of ``MDONLINE`` (Algorithm 11) — *is the query itself satisfactory?* —
is a black-box oracle call, and the batched serving paths
(:meth:`~repro.core.engine.ApproxEngine.suggest_many`, the §5.4 sample
validation, ``MDBASELINE``'s blend probes) make it for a whole batch at once:

* :func:`evaluate_many` — the oracle's ``is_satisfactory_many`` over a
  ``(q, n)`` stack of orderings, checked to return one boolean per row;
* :func:`evaluate_functions_many` — the same for a batch of scoring
  functions, ordered by one :func:`~repro.ranking.scoring.order_many` call
  (bit-identical to per-function ``order``).

Every oracle answers a batch:
:meth:`~repro.fairness.oracle.FairnessOracle.is_satisfactory_many` loops
``is_satisfactory`` row by row, and that loop is the specification the
counting oracles' vectorised kernels must reproduce *exactly* (the test
suite asserts the equivalence property-style).  A class that redefines
``is_satisfactory`` (itself, or through a mixin ahead of the kernel's class)
without a kernel of its own gets the loop when the class is created, so it
is never judged by a parent's kernel.  Counting wrappers
count ``q`` calls per batch, so the paper's reported oracle-call metric
(Theorems 1 and 3 are stated in oracle calls) is unchanged whether a
workload runs batched or as a per-query loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import OracleError
from repro.ranking.scoring import order_many

__all__ = ["ordering_matrix", "evaluate_many", "evaluate_functions_many"]


def ordering_matrix(orderings: np.ndarray) -> np.ndarray:
    """Validate and return a ``(q, n)`` integer ordering matrix.

    The shared entrance check of every ``is_satisfactory_many``
    implementation; raises :class:`~repro.exceptions.OracleError` on anything
    that is not a 2-D stack of orderings.
    """
    orderings = np.asarray(orderings, dtype=int)
    if orderings.ndim != 2:
        raise OracleError(
            f"is_satisfactory_many expects a (q, n) ordering matrix, "
            f"got shape {orderings.shape}"
        )
    return orderings


def evaluate_many(oracle, orderings: np.ndarray, dataset: Dataset) -> np.ndarray:
    """Verdict per row of an ordering matrix, from the oracle's ``is_satisfactory_many``.

    The one entry point of every batch: it checks that the oracle returned
    one boolean per row.  Composites route their children through it.
    """
    orderings = ordering_matrix(orderings)
    verdicts = np.asarray(oracle.is_satisfactory_many(orderings, dataset), dtype=bool)
    if verdicts.shape != (orderings.shape[0],):
        raise OracleError(
            f"{type(oracle).__name__}.is_satisfactory_many returned shape "
            f"{verdicts.shape} for {orderings.shape[0]} orderings"
        )
    return verdicts


def evaluate_functions_many(
    oracle, dataset: Dataset, functions: Sequence, weight_matrix: np.ndarray | None = None
) -> np.ndarray:
    """Verdict per scoring function, judged as one batch.

    The batch mirror of looping
    :meth:`~repro.fairness.oracle.FairnessOracle.evaluate_function`: the
    whole batch is ordered by one call to
    :func:`~repro.ranking.scoring.order_many` (bit-identical to per-function
    ``order``) and judged by :func:`evaluate_many`.  Counting wrappers report
    the loop's oracle-call totals.

    ``weight_matrix`` lets a caller that already holds the ``(q, d)`` matrix
    the functions were built from (e.g. a ``suggest_many`` batch) skip the
    per-function re-stacking; rows must equal ``functions[i].as_array()``.
    """
    functions = list(functions)
    if not functions:
        return np.zeros(0, dtype=bool)
    if weight_matrix is None:
        weight_matrix = np.stack([function.as_array() for function in functions])
    return evaluate_many(oracle, order_many(dataset, weight_matrix), dataset)
