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

from repro.data.dataset import Dataset
from repro.exceptions import OracleError
from repro.fairness.composite import AndOracle
from repro.fairness.oracle import FairnessOracle
from repro.fairness.proportional import ProportionalOracle, TopKGroupBoundOracle

__all__ = ["MultiAttributeOracle"]


class MultiAttributeOracle(AndOracle):
    """Conjunction of group bounds over several type attributes (FM2).

    An :class:`~repro.fairness.composite.AndOracle` over its per-group
    bounds: every verdict route is the conjunction's, and only the
    constructors and the ``FM2[...]`` description are its own.

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
        super().__init__(children)
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

    def describe(self) -> str:
        return f"FM2[{super().describe()}]"
