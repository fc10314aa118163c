"""Tests for the combined fairness audit report (:mod:`repro.fairness.auditing`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.fairness.auditing import (
    RankingAudit,
    audit_function,
    audit_ordering,
    compare_audits,
    format_audit,
)
from repro.fairness.measures import group_share_at_k, selection_rate_ratio
from repro.ranking.scoring import LinearScoringFunction


@pytest.fixture
def skewed_dataset() -> Dataset:
    """Ten items where the protected group scores systematically lower."""
    scores = np.column_stack(
        [
            np.array([9.0, 8.0, 7.0, 6.0, 5.5, 5.0, 4.0, 3.0, 2.0, 1.0]),
            np.ones(10),
        ]
    )
    groups = ["b", "b", "b", "b", "b", "a", "a", "a", "a", "a"]
    return Dataset(scores, ["merit", "constant"], types={"group": groups})


class TestAuditOrdering:
    def test_reports_counts_and_shares(self, skewed_dataset):
        ordering = np.arange(10)
        audit = audit_ordering(skewed_dataset, ordering, "group", "a", k=4)
        assert audit.k == 4
        assert audit.protected_count_at_k == 0
        assert audit.protected_share_at_k == 0.0
        assert audit.dataset_share == pytest.approx(0.5)

    def test_matches_individual_measures(self, skewed_dataset):
        ordering = np.arange(10)
        audit = audit_ordering(skewed_dataset, ordering, "group", "a", k=6)
        assert audit.protected_share_at_k == pytest.approx(
            group_share_at_k(skewed_dataset, ordering, "group", "a", 6)
        )
        assert audit.selection_rate_ratio == pytest.approx(
            selection_rate_ratio(skewed_dataset, ordering, "group", "a", 6)
        )

    def test_fractional_k_is_resolved(self, skewed_dataset):
        audit = audit_ordering(skewed_dataset, np.arange(10), "group", "a", k=0.4)
        assert audit.k == 4

    def test_pairwise_fields_reflect_skew(self, skewed_dataset):
        audit = audit_ordering(skewed_dataset, np.arange(10), "group", "a", k=4)
        # Protected group is entirely below the other group.
        assert audit.protected_above_rate == pytest.approx(0.0)
        assert audit.rank_biserial == pytest.approx(-1.0)
        assert audit.mean_rank_gap > 0
        assert audit.exposure_ratio < 1.0

    def test_as_dict_round_trips_every_field(self, skewed_dataset):
        audit = audit_ordering(skewed_dataset, np.arange(10), "group", "a", k=4)
        payload = audit.as_dict()
        assert payload["k"] == 4
        assert set(payload) >= {
            "rnd",
            "rkl",
            "exposure_ratio",
            "protected_above_rate",
            "mean_rank_gap",
        }


class TestAuditFunction:
    def test_function_audit_equals_ordering_audit(self, skewed_dataset):
        function = LinearScoringFunction((1.0, 0.0))
        by_function = audit_function(skewed_dataset, function, "group", "a", k=4)
        by_ordering = audit_ordering(
            skewed_dataset, function.order(skewed_dataset), "group", "a", k=4
        )
        assert by_function == by_ordering


class TestCompareAndFormat:
    def test_compare_audits_pairs_numeric_fields(self, skewed_dataset):
        before = audit_ordering(skewed_dataset, np.arange(10), "group", "a", k=4)
        after = audit_ordering(skewed_dataset, np.arange(10)[::-1], "group", "a", k=4)
        comparison = compare_audits(before, after)
        assert comparison["protected_share_at_k"] == (
            pytest.approx(before.protected_share_at_k),
            pytest.approx(after.protected_share_at_k),
        )
        assert "attribute" not in comparison

    def test_format_audit_mentions_group_and_measures(self, skewed_dataset):
        audit = audit_ordering(skewed_dataset, np.arange(10), "group", "a", k=4)
        text = format_audit(audit, title="before")
        assert "before" in text
        assert "'a'" in text
        assert "rND" in text and "exposure ratio" in text

    def test_format_audit_without_title(self, skewed_dataset):
        audit = audit_ordering(skewed_dataset, np.arange(10), "group", "a", k=4)
        assert "protected in top-k" in format_audit(audit)

    def test_designer_suggestion_improves_the_audit(
        self, shared_approx_index, shared_compas_3d, shared_race_oracle_3d
    ):
        # The protected group is bounded from above by the oracle; an audit of
        # the suggested function must respect that bound.
        from repro.core.approx import md_online

        query = LinearScoringFunction((0.9, 0.05, 0.05))
        answer = md_online(shared_compas_3d, shared_race_oracle_3d, shared_approx_index, query)
        audit = audit_function(
            shared_compas_3d, answer.function, "race", "African-American", k=0.3
        )
        assert isinstance(audit, RankingAudit)
        assert audit.protected_share_at_k <= shared_race_oracle_3d.max_fraction + 1e-9
