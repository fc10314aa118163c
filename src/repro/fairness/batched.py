"""The batched-oracle protocol for query-batch entry points.

Line 1 of ``MDONLINE`` (Algorithm 11) — *is the query itself satisfactory?* —
is a black-box oracle call, and the batched serving paths
(:meth:`~repro.core.engine.ApproxEngine.suggest_many`, the §5.4 sample
validation) used to make it one query at a time: a full ``argsort`` plus a
Python-level ``is_satisfactory`` per query.  The
:class:`BatchedOracle` protocol is the batch mirror of the incremental one
(:mod:`repro.fairness.incremental`):

* ``is_satisfactory_many(orderings, dataset)`` — verdicts for a whole
  ``(q, n)`` stack of orderings at once, one boolean per row.

Verdicts must be *exactly* those of ``is_satisfactory`` on each row; the
equivalence is asserted property-style in the test suite.  Counting wrappers
count ``q`` calls per batch, so the paper's reported oracle-call metric
(Theorems 1 and 3 are stated in oracle calls) is unchanged whether a workload
runs batched or as a per-query loop.

:func:`as_batched` is the capability probe, with the same guards as
:func:`~repro.fairness.incremental.as_incremental`: an oracle that does not
implement the protocol (or reports itself incapable via ``batched_capable``),
a composite tree that reaches the same instance twice, or a subclass that
overrides ``is_satisfactory`` below the class providing
``is_satisfactory_many`` all return ``None`` — the caller then falls back to
bit-identical per-query evaluation, so user-supplied
:class:`~repro.fairness.oracle.CallableOracle` criteria keep working
untouched.  One place the probe is deliberately *less* strict than the
incremental one: a composite with a black-box leaf is still batched-capable —
the protocol is stateless, so And/Or/Not batch their capable children and
loop the black-box ones (short-circuiting per row exactly like the scalar
``all``/``any``, which keeps counting children's call totals loop-identical).
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import OracleError
from repro.fairness.incremental import _not_overridden_below, _tree_shares_nodes
from repro.ranking.scoring import order_many

__all__ = [
    "BatchedOracle",
    "as_batched",
    "ordering_matrix",
    "evaluate_many",
    "evaluate_functions_many",
]


@runtime_checkable
class BatchedOracle(Protocol):
    """Structural protocol of oracles that judge a stack of orderings at once.

    Implementors may additionally expose ``batched_capable() -> bool`` to
    signal at runtime whether the protocol can actually be used (wrappers and
    composites are capable only when the oracles they delegate to are).
    """

    def is_satisfactory_many(self, orderings: np.ndarray, dataset: Dataset) -> np.ndarray:
        """Boolean verdict per row of a ``(q, n)`` ordering matrix (best first)."""
        ...


def as_batched(oracle) -> BatchedOracle | None:
    """Return ``oracle`` as a :class:`BatchedOracle`, or ``None``.

    ``None`` means the caller must fall back to per-row ``is_satisfactory``
    evaluation — because the oracle does not implement the protocol, reports
    itself incapable, overrides ``is_satisfactory`` below the class that
    provides ``is_satisfactory_many``, or sits in a composite tree that
    reaches the same instance twice (mirroring ``as_incremental``, so the two
    protocols advertise capability consistently).
    """
    if not isinstance(oracle, BatchedOracle):
        return None
    # A subclass overriding is_satisfactory below the class providing
    # is_satisfactory_many would silently be judged with the parent's verdicts.
    if not _not_overridden_below(oracle, "is_satisfactory_many", ("is_satisfactory",)):
        return None
    capable = getattr(oracle, "batched_capable", None)
    if capable is not None and not capable():
        return None
    if _tree_shares_nodes(oracle):
        return None
    return oracle


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
    """Verdict per row of an ordering matrix, batched when the oracle supports it.

    The universal entry point: uses the oracle's ``is_satisfactory_many`` when
    :func:`as_batched` accepts it, and otherwise falls back to a bit-identical
    loop of ``is_satisfactory`` calls.  Composites route their children
    through this function, so a tree with one black-box leaf still batches
    every other branch.
    """
    orderings = ordering_matrix(orderings)
    batched = as_batched(oracle)
    if batched is not None:
        verdicts = np.asarray(batched.is_satisfactory_many(orderings, dataset), dtype=bool)
        if verdicts.shape != (orderings.shape[0],):
            raise OracleError(
                f"{type(oracle).__name__}.is_satisfactory_many returned shape "
                f"{verdicts.shape} for {orderings.shape[0]} orderings"
            )
        return verdicts
    return np.fromiter(
        (bool(oracle.is_satisfactory(row, dataset)) for row in orderings),
        dtype=bool,
        count=orderings.shape[0],
    )


def evaluate_functions_many(
    oracle, dataset: Dataset, functions: Sequence, weight_matrix: np.ndarray | None = None
) -> np.ndarray:
    """Verdict per scoring function, batched when the oracle supports it.

    The batch mirror of looping
    :meth:`~repro.fairness.oracle.FairnessOracle.evaluate_function`: with a
    batched oracle, the whole batch is ordered by one call to
    :func:`~repro.ranking.scoring.order_many` (bit-identical to per-function
    ``order``) and judged with one ``is_satisfactory_many``; otherwise every
    function is evaluated exactly as the per-query loop would.  Counting
    wrappers report the same oracle-call totals on both routes.

    ``weight_matrix`` lets a caller that already holds the ``(q, d)`` matrix
    the functions were built from (e.g. a ``suggest_many`` batch) skip the
    per-function re-stacking; rows must equal ``functions[i].as_array()``.
    """
    functions = list(functions)
    if not functions:
        return np.zeros(0, dtype=bool)
    batched = as_batched(oracle)
    if batched is None:
        return np.fromiter(
            (bool(oracle.evaluate_function(function, dataset)) for function in functions),
            dtype=bool,
            count=len(functions),
        )
    if weight_matrix is None:
        weight_matrix = np.stack([function.as_array() for function in functions])
    orderings = order_many(dataset, weight_matrix)
    verdicts = np.asarray(batched.is_satisfactory_many(orderings, dataset), dtype=bool)
    if verdicts.shape != (len(functions),):
        raise OracleError(
            f"{type(oracle).__name__}.is_satisfactory_many returned shape "
            f"{verdicts.shape} for {len(functions)} orderings"
        )
    return verdicts
