"""Composition of fairness oracles.

The paper's FM2 model (§6.1) combines proportionality constraints over several
type attributes — satisfied only when *all* of them hold.  More generally the
black-box oracle model composes freely; these combinators cover the common
cases and are used to build FM2 from FM1 parts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import OracleError
from repro.fairness.batched import evaluate_many, ordering_matrix
from repro.fairness.incremental import as_incremental
from repro.fairness.oracle import FairnessOracle

__all__ = ["AndOracle", "OrOracle", "NotOracle"]


class _NaryOracle(FairnessOracle):
    """And/Or composites: the children's verdicts, short-circuited on the decisive one.

    A child verdict equal to ``_decisive`` (False for AND, True for OR)
    decides the composite, and later children are not asked.  Every route —
    scalar, batched, per-swap and whole-sweep — short-circuits the same way,
    so a counting child (or one with side effects) observes the same
    evaluations and call totals however the composite is judged.  The
    incremental protocol is forwarded to every child; capable only when every
    child is.
    """

    #: The child verdict that decides the composite's.
    _decisive: bool
    #: The operator ``describe`` joins the children with.
    _joiner: str

    def __init__(self, children: Sequence[FairnessOracle]):
        children = list(children)
        if not children:
            raise OracleError(f"{type(self).__name__} needs at least one child oracle")
        if not all(isinstance(child, FairnessOracle) for child in children):
            raise OracleError("all children must be FairnessOracle instances")
        self.children = children

    def _combine(self, verdicts) -> bool:
        """Short-circuit over lazily computed child verdicts."""
        for verdict in verdicts:
            if bool(verdict) == self._decisive:
                return self._decisive
        return not self._decisive

    def is_satisfactory(self, ordering: np.ndarray, dataset: Dataset) -> bool:
        return self._combine(child.is_satisfactory(ordering, dataset) for child in self.children)

    def is_satisfactory_many(self, orderings: np.ndarray, dataset: Dataset) -> np.ndarray:
        """Combined verdict vector (≡ a loop of ``is_satisfactory``).

        Each child only sees the rows no earlier child decided.
        """
        orderings = ordering_matrix(orderings)
        verdicts = np.full(orderings.shape[0], not self._decisive)
        remaining = np.arange(orderings.shape[0])
        for child in self.children:
            if remaining.size == 0:
                break
            decided = evaluate_many(child, orderings[remaining], dataset) == self._decisive
            verdicts[remaining[decided]] = self._decisive
            remaining = remaining[~decided]
        return verdicts

    def incremental_capable(self) -> bool:
        return all(as_incremental(child) is not None for child in self.children)

    def begin(self, ordering: np.ndarray, dataset: Dataset) -> None:
        for child in self.children:
            child.begin(ordering, dataset)

    def apply_swap(self, pos_i: int, pos_j: int) -> None:
        for child in self.children:
            child.apply_swap(pos_i, pos_j)

    def verdict(self) -> bool:
        return self._combine(child.verdict() for child in self.children)

    def sweep_verdicts(
        self,
        low: np.ndarray,
        leaving: np.ndarray,
        entering: np.ndarray,
        judge_at: np.ndarray,
    ) -> np.ndarray:
        """Combined verdict per sector.

        Each child judges only the sectors no earlier child decided; every
        child still receives every event, as every child receives every
        ``apply_swap``.
        """
        verdicts = np.full(judge_at.shape, not self._decisive)
        open_sectors = np.arange(judge_at.size)
        for child in self.children:
            child_verdicts = child.sweep_verdicts(
                low, leaving, entering, judge_at[open_sectors]
            )
            decided = np.asarray(child_verdicts, dtype=bool) == self._decisive
            verdicts[open_sectors[decided]] = self._decisive
            open_sectors = open_sectors[~decided]
        return verdicts

    def describe(self) -> str:
        return f" {self._joiner} ".join(child.describe() for child in self.children)


class AndOracle(_NaryOracle):
    """Satisfied when every child oracle is satisfied (conjunction; FM2 is built this way)."""

    _decisive = False
    _joiner = "AND"


class OrOracle(_NaryOracle):
    """Satisfied when at least one child oracle is satisfied (disjunction)."""

    _decisive = True
    _joiner = "OR"


class NotOracle(FairnessOracle):
    """Negation of an oracle (useful for testing and for 'avoid this pattern' criteria)."""

    def __init__(self, child: FairnessOracle):
        if not isinstance(child, FairnessOracle):
            raise OracleError("NotOracle wraps a FairnessOracle")
        self.child = child

    def is_satisfactory(self, ordering: np.ndarray, dataset: Dataset) -> bool:
        return not self.child.is_satisfactory(ordering, dataset)

    def is_satisfactory_many(self, orderings: np.ndarray, dataset: Dataset) -> np.ndarray:
        """Negated child verdict vector (≡ a loop of ``is_satisfactory``)."""
        return ~evaluate_many(self.child, orderings, dataset)

    # incremental protocol: capable only when the child is.
    def incremental_capable(self) -> bool:
        return as_incremental(self.child) is not None

    def begin(self, ordering: np.ndarray, dataset: Dataset) -> None:
        self.child.begin(ordering, dataset)

    def apply_swap(self, pos_i: int, pos_j: int) -> None:
        self.child.apply_swap(pos_i, pos_j)

    def sweep_verdicts(
        self,
        low: np.ndarray,
        leaving: np.ndarray,
        entering: np.ndarray,
        judge_at: np.ndarray,
    ) -> np.ndarray:
        return ~np.asarray(
            self.child.sweep_verdicts(low, leaving, entering, judge_at), dtype=bool
        )

    def verdict(self) -> bool:
        return not self.child.verdict()

    def describe(self) -> str:
        return f"NOT ({self.child.describe()})"
