"""Multi-attribute proportionality constraints (the paper's FM2).

FM2 (§6.1) generalises FM1 to several, possibly overlapping, type attributes:
for COMPAS the paper bounds males, African-Americans and the youngest age
bucket simultaneously at the top 30 %.  The model is expressed here as a
conjunction of per-group bounds, with convenience constructors for the two
phrasings the paper uses (absolute counts, and "at most 10 % above the
dataset share").
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import OracleError
from repro.fairness.batched import as_batched, evaluate_many
from repro.fairness.composite import AndOracle
from repro.fairness.oracle import FairnessOracle
from repro.fairness.proportional import ProportionalOracle, TopKGroupBoundOracle

__all__ = ["MultiAttributeOracle"]


class MultiAttributeOracle(FairnessOracle):
    """Conjunction of group bounds over several type attributes (FM2).

    Parameters
    ----------
    constraints:
        Sequence of ``(attribute, group, max_count)`` triples bounding the
        number of members of each group in the top-``k``, or ready-made
        :class:`FairnessOracle` children.
    k:
        Top-``k`` size shared by the count-based constraints (absolute count or
        fraction of the dataset).
    """

    def __init__(
        self,
        constraints: Sequence,
        k: int | float | None = None,
    ) -> None:
        children: list[FairnessOracle] = []
        for constraint in constraints:
            if isinstance(constraint, FairnessOracle):
                children.append(constraint)
                continue
            try:
                attribute, group, max_count = constraint
            except (TypeError, ValueError) as exc:
                raise OracleError(
                    "constraints must be FairnessOracle instances or "
                    "(attribute, group, max_count) triples"
                ) from exc
            if k is None:
                raise OracleError("k is required when passing (attribute, group, max_count) triples")
            children.append(
                TopKGroupBoundOracle(attribute, group, k, max_count=int(max_count))
            )
        if not children:
            raise OracleError("MultiAttributeOracle needs at least one constraint")
        self._inner = AndOracle(children)
        self.k = k

    @classmethod
    def from_dataset_shares(
        cls,
        dataset: Dataset,
        groups: Mapping[str, Sequence],
        k: int | float,
        slack: float = 0.10,
    ) -> "MultiAttributeOracle":
        """Bound every listed group to at most its dataset share plus ``slack``.

        This is the paper's phrasing for FM2: "a ranking is considered
        satisfactory if the proportion of members of a particular demographic
        group is no more than 10 % higher than its proportion in D".

        Parameters
        ----------
        dataset:
            The dataset whose composition anchors the bounds.
        groups:
            Mapping from type attribute to the groups of that attribute to
            bound, e.g. ``{"sex": ["male"], "race": ["African-American"]}``.
        k:
            Top-``k`` size (count or fraction).
        slack:
            Allowed excess over the dataset share (default 10 %).
        """
        children = []
        for attribute, group_list in groups.items():
            for group in group_list:
                children.append(
                    ProportionalOracle.at_most_share_plus_slack(
                        dataset, attribute, group, k, slack
                    )
                )
        return cls(children, k=k)

    def is_satisfactory(self, ordering: np.ndarray, dataset: Dataset) -> bool:
        return self._inner.is_satisfactory(ordering, dataset)

    # batched protocol: FM2 is a conjunction, so delegate to it wholesale.
    def batched_capable(self) -> bool:
        return as_batched(self._inner) is not None

    def is_satisfactory_many(self, orderings: np.ndarray, dataset: Dataset) -> np.ndarray:
        """Verdict vector of the underlying conjunction (≡ a loop of ``is_satisfactory``)."""
        return evaluate_many(self._inner, orderings, dataset)

    # incremental protocol: FM2 is a conjunction, so delegate to it wholesale.
    def incremental_capable(self) -> bool:
        return self._inner.incremental_capable()

    def begin(self, ordering: np.ndarray, dataset: Dataset) -> None:
        self._inner.begin(ordering, dataset)

    def apply_swap(self, pos_i: int, pos_j: int) -> None:
        self._inner.apply_swap(pos_i, pos_j)

    def sweep_verdicts(
        self,
        low: np.ndarray,
        leaving: np.ndarray,
        entering: np.ndarray,
        judge_at: np.ndarray,
    ) -> np.ndarray:
        return self._inner.sweep_verdicts(low, leaving, entering, judge_at)

    def verdict(self) -> bool:
        return self._inner.verdict()

    def describe(self) -> str:
        return f"FM2[{self._inner.describe()}]"

    @property
    def children(self) -> list[FairnessOracle]:
        """The individual per-group constraints."""
        return list(self._inner.children)
