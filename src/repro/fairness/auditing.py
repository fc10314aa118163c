"""One-stop fairness audit of a ranking or a scoring function.

Examples, the CLI and the EXPERIMENTS report repeatedly want the same thing:
"take this ordering (or this weight vector), and tell me how fair it is under
every measure we know".  :func:`audit_ordering` bundles the prefix measures of
:mod:`repro.fairness.measures` and the pairwise measures of
:mod:`repro.fairness.pairwise` into a single :class:`RankingAudit`, and
:func:`compare_audits` reports how the picture changes between two rankings
(typically: the user's proposed function vs. the designer's suggestion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.fairness.measures import (
    exposure_ratio,
    rkl_measure,
    rnd_measure,
    selection_rate_ratio,
)
from repro.fairness.pairwise import (
    mean_rank_gap,
    pairwise_parity_gap,
    protected_above_rate,
    rank_biserial_correlation,
)
from repro.ranking.scoring import LinearScoringFunction
from repro.ranking.topk import group_counts_at_k, resolve_k

__all__ = ["RankingAudit", "audit_ordering", "audit_function", "compare_audits", "format_audit"]


@dataclass(frozen=True)
class RankingAudit:
    """Fairness measures of one ordering with respect to one protected group.

    Attributes
    ----------
    attribute, protected:
        The type attribute and group the audit is about.
    k:
        The resolved top-``k`` size the prefix measures were computed at.
    protected_count_at_k, protected_share_at_k:
        Absolute count and share of the protected group in the top-``k``.
    dataset_share:
        The group's share of the whole dataset (the proportionality reference).
    selection_rate_ratio:
        Disparate-impact style ratio of selection rates at ``k`` (1 = parity).
    rnd, rkl:
        Prefix-based ranked fairness measures of Yang & Stoyanovich (0 = fair).
    exposure_ratio:
        Ratio of mean position-discounted exposure, protected vs. rest.
    protected_above_rate, pairwise_parity_gap, rank_biserial, mean_rank_gap:
        Pairwise measures over the full ordering (see
        :mod:`repro.fairness.pairwise`).
    """

    attribute: str
    protected: object
    k: int
    protected_count_at_k: int
    protected_share_at_k: float
    dataset_share: float
    selection_rate_ratio: float
    rnd: float
    rkl: float
    exposure_ratio: float
    protected_above_rate: float
    pairwise_parity_gap: float
    rank_biserial: float
    mean_rank_gap: float

    def as_dict(self) -> dict:
        """The audit as a plain dictionary (JSON-serialisable except the group value)."""
        return {
            "attribute": self.attribute,
            "protected": self.protected,
            "k": self.k,
            "protected_count_at_k": self.protected_count_at_k,
            "protected_share_at_k": self.protected_share_at_k,
            "dataset_share": self.dataset_share,
            "selection_rate_ratio": self.selection_rate_ratio,
            "rnd": self.rnd,
            "rkl": self.rkl,
            "exposure_ratio": self.exposure_ratio,
            "protected_above_rate": self.protected_above_rate,
            "pairwise_parity_gap": self.pairwise_parity_gap,
            "rank_biserial": self.rank_biserial,
            "mean_rank_gap": self.mean_rank_gap,
        }


def audit_ordering(
    dataset: Dataset,
    ordering: np.ndarray,
    attribute: str,
    protected,
    k: int | float,
) -> RankingAudit:
    """Compute every implemented fairness measure for one ordering.

    Parameters
    ----------
    dataset:
        The dataset the ordering refers to.
    ordering:
        A full ordering of the dataset (item indices, best first).
    attribute, protected:
        The type attribute and protected group the audit concerns.
    k:
        The top-``k`` size used by the prefix measures (count or fraction).
    """
    resolved_k = resolve_k(dataset, k)
    counts = group_counts_at_k(dataset, ordering, attribute, resolved_k)
    count = counts.get(protected, 0)
    return RankingAudit(
        attribute=attribute,
        protected=protected,
        k=resolved_k,
        protected_count_at_k=count,
        protected_share_at_k=count / float(resolved_k),
        dataset_share=dataset.group_proportions(attribute).get(protected, 0.0),
        selection_rate_ratio=selection_rate_ratio(dataset, ordering, attribute, protected, resolved_k),
        rnd=rnd_measure(dataset, ordering, attribute, protected),
        rkl=rkl_measure(dataset, ordering, attribute),
        exposure_ratio=exposure_ratio(dataset, ordering, attribute, protected),
        protected_above_rate=protected_above_rate(dataset, ordering, attribute, protected),
        pairwise_parity_gap=pairwise_parity_gap(dataset, ordering, attribute, protected),
        rank_biserial=rank_biserial_correlation(dataset, ordering, attribute, protected),
        mean_rank_gap=mean_rank_gap(dataset, ordering, attribute, protected),
    )


def audit_function(
    dataset: Dataset,
    function: LinearScoringFunction,
    attribute: str,
    protected,
    k: int | float,
) -> RankingAudit:
    """Audit the ordering induced by a scoring function (:func:`audit_ordering` shortcut)."""
    return audit_ordering(dataset, function.order(dataset), attribute, protected, k)


def compare_audits(before: RankingAudit, after: RankingAudit) -> dict[str, tuple[float, float]]:
    """Pair up the numeric measures of two audits as ``name -> (before, after)``.

    Useful for printing "query vs. suggestion" tables; non-numeric fields
    (attribute, group) are omitted.
    """
    numeric_keys = [
        "protected_count_at_k",
        "protected_share_at_k",
        "selection_rate_ratio",
        "rnd",
        "rkl",
        "exposure_ratio",
        "protected_above_rate",
        "pairwise_parity_gap",
        "rank_biserial",
        "mean_rank_gap",
    ]
    before_dict = before.as_dict()
    after_dict = after.as_dict()
    return {key: (float(before_dict[key]), float(after_dict[key])) for key in numeric_keys}


def format_audit(audit: RankingAudit, title: str = "") -> str:
    """Render an audit as an aligned plain-text report."""
    lines = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    lines.append(
        f"group {audit.protected!r} of attribute {audit.attribute!r} "
        f"(dataset share {audit.dataset_share:.1%})"
    )
    rows = [
        ("protected in top-k", f"{audit.protected_count_at_k} of {audit.k} "
                               f"({audit.protected_share_at_k:.1%})"),
        ("selection-rate ratio", f"{audit.selection_rate_ratio:.3f}"),
        ("rND (0 = fair)", f"{audit.rnd:.4f}"),
        ("rKL (0 = fair)", f"{audit.rkl:.4f}"),
        ("exposure ratio", f"{audit.exposure_ratio:.3f}"),
        ("P(protected above other)", f"{audit.protected_above_rate:.3f}"),
        ("pairwise parity gap", f"{audit.pairwise_parity_gap:.3f}"),
        ("rank-biserial correlation", f"{audit.rank_biserial:+.3f}"),
        ("mean normalised rank gap", f"{audit.mean_rank_gap:+.3f}"),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        lines.append(f"  {label.ljust(width)}  {value}")
    return "\n".join(lines)
