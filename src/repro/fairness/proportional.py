"""Proportional-representation fairness constraints (the paper's FM1).

FM1 (§6.1) bounds, from below and/or above, the number of members of one
demographic group among the top-``k`` of the ranking.  The constraint can be
stated with absolute counts, with fractions of ``k``, or — as the paper
usually phrases it — relative to the group's share of the whole dataset
("at most 10 % more than its proportion in D").
"""

from __future__ import annotations

import math
from abc import abstractmethod

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import OracleError
from repro.fairness.batched import ordering_matrix
from repro.fairness.incremental import TopKGroupCounter
from repro.fairness.oracle import FairnessOracle
from repro.ranking.topk import group_counts_at_k, resolve_k

__all__ = ["ProportionalOracle", "TopKGroupBoundOracle"]


def _within(counts: np.ndarray, min_count: int | None, max_count: int | None) -> np.ndarray:
    """Elementwise ``min_count <= counts <= max_count``; a missing bound always holds."""
    verdicts = np.ones(counts.shape, dtype=bool)
    if min_count is not None:
        verdicts &= counts >= min_count
    if max_count is not None:
        verdicts &= counts <= max_count
    return verdicts


def _holds(count: int, min_count: int | None, max_count: int | None) -> bool:
    """Scalar ``min_count <= count <= max_count``; a missing bound always holds."""
    if min_count is not None and count < min_count:
        return False
    if max_count is not None and count > max_count:
        return False
    return True


class _TopKCountOracle(FairnessOracle):
    """One group's member count in the top-``k``, held between two count bounds.

    The body of :class:`ProportionalOracle` and :class:`TopKGroupBoundOracle`:
    the scalar, batched, per-swap and whole-sweep routes all compare the
    count with the bounds :meth:`_count_bounds` gives at the resolved ``k``,
    so the routes agree by construction.  A subclass sets ``attribute``,
    ``group`` and ``k`` and supplies only how its bounds are derived.
    """

    attribute: str
    group: object
    k: int | float

    @abstractmethod
    def _count_bounds(self, k: int) -> tuple[int | None, int | None]:
        """The ``(min_count, max_count)`` bounds in a top-``k`` of size ``k``."""

    def is_satisfactory(self, ordering: np.ndarray, dataset: Dataset) -> bool:
        k = resolve_k(dataset, self.k)
        counts = group_counts_at_k(dataset, ordering, self.attribute, k)
        return _holds(counts.get(self.group, 0), *self._count_bounds(k))

    # ------------------------------------------------------------------ #
    # batch kernel (query-batch hot path)
    # ------------------------------------------------------------------ #
    def is_satisfactory_many(self, orderings: np.ndarray, dataset: Dataset) -> np.ndarray:
        """Verdict per row of a ``(q, n)`` ordering stack (≡ a loop of ``is_satisfactory``).

        One boolean gather counts the group's members in every row's top-``k``
        prefix, compared with the same bounds the scalar route uses.
        """
        orderings = ordering_matrix(orderings)
        k = resolve_k(dataset, self.k)
        member = np.asarray(dataset.type_column(self.attribute) == self.group)
        counts = member[orderings[:, :k]].sum(axis=1)
        return _within(counts, *self._count_bounds(k))

    # ------------------------------------------------------------------ #
    # incremental protocol (sweep hot path)
    # ------------------------------------------------------------------ #
    def begin(self, ordering: np.ndarray, dataset: Dataset) -> None:
        """Initialise O(1)-per-swap tracking of the top-``k`` group count."""
        k = resolve_k(dataset, self.k)
        self._counter = TopKGroupCounter(dataset, ordering, self.attribute, self.group, k)
        self._bounds = self._count_bounds(k)

    def apply_swap(self, pos_i: int, pos_j: int) -> None:
        self._counter.apply_swap(pos_i, pos_j)

    def sweep_verdicts(
        self,
        low: np.ndarray,
        leaving: np.ndarray,
        entering: np.ndarray,
        judge_at: np.ndarray,
    ) -> np.ndarray:
        """Verdicts of a whole sweep of adjacent swaps (see :mod:`repro.fairness.incremental`)."""
        counts = self._counter.counts_along(low, leaving, entering, judge_at)
        return _within(counts, *self._bounds)

    def verdict(self) -> bool:
        return _holds(self._counter.count, *self._bounds)


class ProportionalOracle(_TopKCountOracle):
    """Bound the share of one group in the top-``k`` (FM1).

    Parameters
    ----------
    attribute:
        Type-attribute name (for example ``"race"``).
    group:
        The group whose presence at the top is constrained (for example
        ``"African-American"``).
    k:
        Top-``k`` size: an absolute count or a fraction of the dataset size.
    min_fraction, max_fraction:
        Lower / upper bound on the group's share of the top-``k``.  At least
        one must be given; both may be.
    """

    def __init__(
        self,
        attribute: str,
        group,
        k: int | float,
        min_fraction: float | None = None,
        max_fraction: float | None = None,
    ) -> None:
        if min_fraction is None and max_fraction is None:
            raise OracleError("ProportionalOracle needs min_fraction and/or max_fraction")
        for name, value in (("min_fraction", min_fraction), ("max_fraction", max_fraction)):
            if value is not None and not 0.0 <= value <= 1.0:
                raise OracleError(f"{name} must lie in [0, 1], got {value}")
        if (
            min_fraction is not None
            and max_fraction is not None
            and min_fraction > max_fraction
        ):
            raise OracleError("min_fraction cannot exceed max_fraction")
        self.attribute = attribute
        self.group = group
        self.k = k
        self.min_fraction = min_fraction
        self.max_fraction = max_fraction

    # ------------------------------------------------------------------ #
    # constructors mirroring the paper's phrasing
    # ------------------------------------------------------------------ #
    @classmethod
    def at_most_share_plus_slack(
        cls, dataset: Dataset, attribute: str, group, k: int | float, slack: float
    ) -> "ProportionalOracle":
        """Constraint "at most ``slack`` more than the group's proportion in D".

        This is the paper's default COMPAS constraint: African-Americans are
        about 50 % of the data, and a ranking is satisfactory if at most 60 %
        (50 % + 10 % slack) of the top 30 % are African-American.
        """
        if slack < 0:
            raise OracleError("slack must be non-negative")
        share = dataset.group_proportions(attribute).get(group, 0.0)
        return cls(attribute, group, k, max_fraction=min(1.0, share + slack))

    @classmethod
    def at_least_share_minus_slack(
        cls, dataset: Dataset, attribute: str, group, k: int | float, slack: float
    ) -> "ProportionalOracle":
        """Constraint "at least ``slack`` less than the group's proportion in D"."""
        if slack < 0:
            raise OracleError("slack must be non-negative")
        share = dataset.group_proportions(attribute).get(group, 0.0)
        return cls(attribute, group, k, min_fraction=max(0.0, share - slack))

    def _count_bounds(self, k: int) -> tuple[int | None, int | None]:
        """The fraction bounds as member counts in a top-``k`` of that size.

        A count requirement derived from a fraction is rounded the way a
        regulator would: at least ceil(fraction * k) members, at most
        floor(fraction * k).
        """
        return (
            None if self.min_fraction is None else math.ceil(self.min_fraction * k - 1e-9),
            None if self.max_fraction is None else math.floor(self.max_fraction * k + 1e-9),
        )

    def describe(self) -> str:
        parts = []
        if self.min_fraction is not None:
            parts.append(f">= {self.min_fraction:.0%}")
        if self.max_fraction is not None:
            parts.append(f"<= {self.max_fraction:.0%}")
        bounds = " and ".join(parts)
        return f"FM1({self.attribute}={self.group} {bounds} of top-{self.k})"


class TopKGroupBoundOracle(_TopKCountOracle):
    """Bound the *count* of one group in the top-``k`` with absolute numbers.

    The §6.2 FM2 experiment states constraints as absolute counts ("at most 90
    males, at most 60 African-Americans ... at the top-100"); this oracle is
    that building block.
    """

    def __init__(
        self,
        attribute: str,
        group,
        k: int | float,
        min_count: int | None = None,
        max_count: int | None = None,
    ) -> None:
        if min_count is None and max_count is None:
            raise OracleError("TopKGroupBoundOracle needs min_count and/or max_count")
        for name, value in (("min_count", min_count), ("max_count", max_count)):
            if value is not None and value < 0:
                raise OracleError(f"{name} must be non-negative")
        if min_count is not None and max_count is not None and min_count > max_count:
            raise OracleError("min_count cannot exceed max_count")
        self.attribute = attribute
        self.group = group
        self.k = k
        self.min_count = min_count
        self.max_count = max_count

    def _count_bounds(self, k: int) -> tuple[int | None, int | None]:
        """The absolute count bounds, whatever the size of the top-``k``."""
        return self.min_count, self.max_count

    def describe(self) -> str:
        parts = []
        if self.min_count is not None:
            parts.append(f">= {self.min_count}")
        if self.max_count is not None:
            parts.append(f"<= {self.max_count}")
        bounds = " and ".join(parts)
        return f"TopKBound({self.attribute}={self.group} {bounds} in top-{self.k})"
