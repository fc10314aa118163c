"""Prefix-proportionality (ranked group fairness) constraints.

The FA*IR line of work (Zehlike et al., CIKM 2017) asks for more than a bound
on the top-``k`` as a whole: *every prefix* of the top-``k`` must contain at
least a minimum number of protected-group members, so protected candidates are
not all pushed to the bottom of an otherwise compliant list.  The paper's
fairness model is deliberately oracle-agnostic, so this constraint plugs
straight into the designer: the satisfactory regions of weight space are then
the weight vectors whose induced ranking is *ranked-group-fair*, not merely
proportional at ``k``.

Two oracles are provided:

* :class:`PrefixProportionalOracle` — lower and/or upper bounds on the
  protected share of every prefix ``1..k``;
* :class:`MinimumAtEveryPrefixOracle` — the classic FA*IR form, "at least
  ``ceil(p · i)`` protected members in every prefix ``i``": the first
  oracle with only ``min_fraction = p``, so it shares that oracle's routes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import OracleError
from repro.fairness.batched import ordering_matrix
from repro.fairness.incremental import PrefixGroupCounter, prefix_violations
from repro.fairness.oracle import FairnessOracle
from repro.ranking.topk import resolve_k

__all__ = ["PrefixProportionalOracle", "MinimumAtEveryPrefixOracle"]


class PrefixProportionalOracle(FairnessOracle):
    """Bound the protected share of *every* prefix of the top-``k``.

    For every prefix length ``i`` in ``1..k`` the number of protected members
    among the first ``i`` items must satisfy::

        ceil(min_fraction * i)  <=  count_i  <=  floor(max_fraction * i)

    (whichever bounds are given).  With only ``min_fraction`` this is the
    FA*IR ranked group fairness criterion; with only ``max_fraction`` it keeps
    a historically over-represented group from monopolising the visible top of
    the list at any cut-off, which is strictly stronger than FM1 at ``k``.

    Parameters
    ----------
    attribute:
        Type-attribute name (for example ``"sex"``).
    protected:
        Group whose presence is constrained at every prefix.
    k:
        Length of the constrained prefix (count or fraction of the dataset).
    min_fraction, max_fraction:
        Per-prefix lower / upper bounds on the protected share.  At least one
        must be given.
    min_prefix:
        Shortest prefix length at which the bounds are enforced (default 1).
        Tiny prefixes make fractional bounds degenerate — a lower bound of
        30 % already forces the very first item to be protected — so, like the
        binomial relaxation in FA*IR, raising ``min_prefix`` starts enforcing
        the proportion only once the prefix is long enough to be meaningful.
    """

    def __init__(
        self,
        attribute: str,
        protected,
        k: int | float,
        min_fraction: float | None = None,
        max_fraction: float | None = None,
        min_prefix: int = 1,
    ) -> None:
        if min_fraction is None and max_fraction is None:
            raise OracleError(
                "PrefixProportionalOracle needs min_fraction and/or max_fraction"
            )
        for name, value in (("min_fraction", min_fraction), ("max_fraction", max_fraction)):
            if value is not None and not 0.0 <= value <= 1.0:
                raise OracleError(f"{name} must lie in [0, 1], got {value}")
        if (
            min_fraction is not None
            and max_fraction is not None
            and min_fraction > max_fraction
        ):
            raise OracleError("min_fraction cannot exceed max_fraction")
        if min_prefix < 1:
            raise OracleError("min_prefix must be at least 1")
        self.attribute = attribute
        self.protected = protected
        self.k = k
        self.min_fraction = min_fraction
        self.max_fraction = max_fraction
        self.min_prefix = min_prefix

    @classmethod
    def matching_dataset_share(
        cls,
        dataset: Dataset,
        attribute: str,
        protected,
        k: int | float,
        slack: float = 0.1,
    ) -> "PrefixProportionalOracle":
        """Require every prefix to stay within ``slack`` of the group's share in ``D``.

        Mirrors the paper's phrasing of FM1 ("at most 10 % more than its
        proportion in D"), but enforced at every prefix rather than only at
        ``k``.
        """
        if slack < 0:
            raise OracleError("slack must be non-negative")
        share = dataset.group_proportions(attribute).get(protected, 0.0)
        return PrefixProportionalOracle(
            attribute,
            protected,
            k,
            min_fraction=max(0.0, share - slack),
            max_fraction=min(1.0, share + slack),
        )

    def _prefix_bounds(self, k: int) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
        """Per-prefix ``(required, allowed, enforced)`` for prefix lengths ``1..k``.

        ``required`` is ``ceil(min_fraction · i)`` and ``allowed``
        ``floor(max_fraction · i)`` (``None`` for a missing bound), as floats;
        ``enforced`` masks the lengths below ``min_prefix``.  Every route
        compares its counts with these arrays.
        """
        prefix_lengths = np.arange(1, k + 1)
        required = (
            None
            if self.min_fraction is None
            else np.ceil(self.min_fraction * prefix_lengths - 1e-9)
        )
        allowed = (
            None
            if self.max_fraction is None
            else np.floor(self.max_fraction * prefix_lengths + 1e-9)
        )
        return required, allowed, prefix_lengths >= self.min_prefix

    def _violated(self, orderings: np.ndarray, dataset: Dataset, k: int) -> np.ndarray:
        """Per-prefix violation flags of one ordering or a stack (prefix lengths last)."""
        member = dataset.type_column(self.attribute)[orderings[..., :k]] == self.protected
        return prefix_violations(np.cumsum(member.astype(int), axis=-1), *self._prefix_bounds(k))

    def is_satisfactory(self, ordering: np.ndarray, dataset: Dataset) -> bool:
        k = resolve_k(dataset, self.k)
        return not np.any(self._violated(np.asarray(ordering, dtype=int), dataset, k))

    # ------------------------------------------------------------------ #
    # batch kernel (query-batch hot path)
    # ------------------------------------------------------------------ #
    def is_satisfactory_many(self, orderings: np.ndarray, dataset: Dataset) -> np.ndarray:
        """Verdict per row of a ``(q, n)`` ordering stack (≡ a loop of ``is_satisfactory``)."""
        orderings = ordering_matrix(orderings)
        return ~np.any(self._violated(orderings, dataset, resolve_k(dataset, self.k)), axis=1)

    # ------------------------------------------------------------------ #
    # incremental protocol (sweep hot path)
    # ------------------------------------------------------------------ #
    def begin(self, ordering: np.ndarray, dataset: Dataset) -> None:
        """Initialise per-prefix count tracking (O(1) per adjacent swap)."""
        k = resolve_k(dataset, self.k)
        required, allowed, enforced = self._prefix_bounds(k)
        self._counter = PrefixGroupCounter(
            dataset,
            ordering,
            self.attribute,
            self.protected,
            k,
            required,
            allowed,
            enforced=enforced,
        )

    def apply_swap(self, pos_i: int, pos_j: int) -> None:
        self._counter.apply_swap(pos_i, pos_j)

    def verdict(self) -> bool:
        return self._counter.satisfied

    def describe(self) -> str:
        parts = []
        if self.min_fraction is not None:
            parts.append(f">= {self.min_fraction:.0%}")
        if self.max_fraction is not None:
            parts.append(f"<= {self.max_fraction:.0%}")
        bounds = " and ".join(parts)
        scope = (
            f"every prefix of top-{self.k}"
            if self.min_prefix <= 1
            else f"every prefix of top-{self.k} of length >= {self.min_prefix}"
        )
        return f"PrefixFM1({self.attribute}={self.protected} {bounds} of {scope})"


class MinimumAtEveryPrefixOracle(PrefixProportionalOracle):
    """FA*IR-style constraint: at least ``ceil(p · i)`` protected members in every prefix ``i``.

    This is the deterministic core of the FA*IR ranked group fairness test
    (the published algorithm relaxes the per-prefix minimum with a binomial
    significance correction; the uncorrected form used here is the strictest
    variant and therefore a conservative oracle).  It is
    ``PrefixProportionalOracle(attribute, protected, k, min_fraction=p)``
    and judges exactly as that oracle does.

    Parameters
    ----------
    attribute:
        Type-attribute name.
    protected:
        The protected group.
    k:
        Length of the constrained prefix (count or fraction of the dataset).
    target_fraction:
        The target protected proportion ``p``.
    """

    def __init__(self, attribute: str, protected, k: int | float, target_fraction: float) -> None:
        if not 0.0 <= target_fraction <= 1.0:
            raise OracleError(f"target_fraction must lie in [0, 1], got {target_fraction}")
        super().__init__(attribute, protected, k, min_fraction=target_fraction)

    @property
    def target_fraction(self) -> float:
        """The target protected proportion ``p``."""
        return self.min_fraction

    def minimum_at(self, prefix_length: int) -> int:
        """The minimum number of protected members required in a prefix of this length."""
        if prefix_length < 1:
            raise OracleError("prefix_length must be at least 1")
        return int(math.ceil(self.target_fraction * prefix_length - 1e-9))

    def describe(self) -> str:
        return (
            f"FA*IR({self.attribute}={self.protected} >= ceil({self.target_fraction:.0%} · i) "
            f"in every prefix i of top-{self.k})"
        )
