"""Tests for 2DRAYSWEEP / 2DONLINE, including brute-force optimality checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.two_dim import AngularInterval, TwoDIndex, TwoDRaySweep
from repro.data.dataset import Dataset
from repro.data.synthetic import make_compas_like
from repro.exceptions import (
    GeometryError,
    NoSatisfactoryFunctionError,
    NotPreprocessedError,
)
from repro.fairness.oracle import CallableOracle, CountingOracle
from repro.fairness.proportional import ProportionalOracle, TopKGroupBoundOracle
from repro.geometry.angles import HALF_PI
from repro.ranking.queries import random_queries
from repro.ranking.scoring import LinearScoringFunction


class TestAngularInterval:
    def test_contains_and_distance(self):
        interval = AngularInterval(0.2, 0.6)
        assert interval.contains(0.4)
        assert not interval.contains(0.7)
        assert interval.distance_to(0.4) == 0.0
        assert interval.distance_to(0.8) == pytest.approx(0.2)
        assert interval.closest_angle_to(0.1) == pytest.approx(0.2)

    def test_invalid_interval(self):
        with pytest.raises(GeometryError):
            AngularInterval(0.6, 0.2)
        with pytest.raises(GeometryError):
            AngularInterval(-0.1, 0.2)


class TestRaySweepOnPaperExample:
    def test_figure1_constraint(self, paper_2d_dataset, balanced_topk_oracle):
        """The Figure 1 dataset has both satisfactory and unsatisfactory functions."""
        index = TwoDRaySweep(paper_2d_dataset, balanced_topk_oracle).run()
        assert index.n_exchanges == 10
        assert index.has_satisfactory_region
        # Verify the sweep's labels agree with direct evaluation for probe
        # functions chosen away from exact ordering-exchange angles (exactly at
        # an exchange the ordering is tied and the label is ambiguous).
        for weights in ([1.0, 1.03], [1.0, 0.2], [0.2, 1.0], [0.97, 1.3]):
            function = LinearScoringFunction(tuple(weights))
            expected = balanced_topk_oracle.evaluate_function(function, paper_2d_dataset)
            angle = math.atan2(weights[1], weights[0])
            assert index.is_satisfactory_angle(angle) == expected

    def test_oracle_called_once_per_sector(self, paper_2d_dataset, balanced_topk_oracle):
        counting = CountingOracle(balanced_topk_oracle)
        index = TwoDRaySweep(paper_2d_dataset, counting).run()
        # one call per sector: number of distinct exchange angles + 1
        assert counting.calls <= index.n_exchanges + 1
        assert counting.calls == index.oracle_calls

    def test_requires_two_attributes(self, paper_3d_dataset, balanced_topk_oracle):
        with pytest.raises(GeometryError):
            TwoDRaySweep(paper_3d_dataset, balanced_topk_oracle)


class TestRaySweepAgainstBruteForce:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_labels_match_direct_evaluation(self, seed):
        """Every probed angle is classified exactly as the oracle classifies it."""
        dataset = make_compas_like(n=30, seed=seed).project(
            ["c_days_from_compas", "juv_other_count"]
        )
        oracle = TopKGroupBoundOracle("race", "African-American", k=8, max_count=5)
        index = TwoDRaySweep(dataset, oracle).run()
        for angle in np.linspace(0.01, HALF_PI - 0.01, 60):
            function = LinearScoringFunction((math.cos(angle), math.sin(angle)))
            assert index.is_satisfactory_angle(angle) == oracle.evaluate_function(
                function, dataset
            )

    @pytest.mark.parametrize("seed", [3, 4])
    def test_suggestion_is_satisfactory_and_nearly_optimal(self, seed):
        dataset = make_compas_like(n=30, seed=seed).project(
            ["c_days_from_compas", "juv_other_count"]
        )
        oracle = TopKGroupBoundOracle("race", "African-American", k=8, max_count=5)
        index = TwoDRaySweep(dataset, oracle).run()
        probe_angles = np.linspace(0.0, HALF_PI, 400)
        satisfied_angles = [
            angle
            for angle in probe_angles
            if oracle.evaluate_function(
                LinearScoringFunction((math.cos(angle), math.sin(angle) + 1e-12)), dataset
            )
        ]
        for query in random_queries(2, 10, seed=seed):
            result = index.query(query)
            suggested = result.function
            # The suggestion must satisfy the oracle.
            assert oracle.evaluate_function(suggested, dataset)
            if not result.satisfactory and satisfied_angles:
                # And be within one probe step of the best satisfiable angle.
                query_angle = math.atan2(query.weights[1], query.weights[0])
                brute_best = min(abs(query_angle - a) for a in satisfied_angles)
                assert result.angular_distance <= brute_best + (HALF_PI / 399) + 1e-6


class TestTwoDOnline:
    def make_index(self) -> TwoDIndex:
        return TwoDIndex(
            intervals=[AngularInterval(0.2, 0.5), AngularInterval(1.0, 1.3)],
            n_exchanges=5,
            oracle_calls=6,
        )

    def test_query_inside_region_returns_input(self):
        index = self.make_index()
        query = LinearScoringFunction((math.cos(0.3), math.sin(0.3)))
        result = index.query(query)
        assert result.satisfactory
        assert result.angular_distance == 0.0
        assert result.function is query

    def test_query_outside_returns_nearest_border(self):
        index = self.make_index()
        query = LinearScoringFunction((math.cos(0.7), math.sin(0.7)))
        result = index.query(query)
        assert not result.satisfactory
        # The suggestion is the nearest interval border, nudged a hair into the
        # interval's interior so it provably induces the satisfactory ordering.
        assert result.angular_distance == pytest.approx(0.2, abs=1e-6)
        suggested_angle = math.atan2(result.function.weights[1], result.function.weights[0])
        assert suggested_angle == pytest.approx(0.5, abs=1e-6)
        assert index.intervals[0].contains(suggested_angle)

    def test_query_preserves_radius(self):
        index = self.make_index()
        query = LinearScoringFunction((3.0 * math.cos(0.7), 3.0 * math.sin(0.7)))
        result = index.query(query)
        assert np.linalg.norm(result.function.as_array()) == pytest.approx(3.0)

    def test_no_satisfactory_region_raises(self):
        index = TwoDIndex(intervals=[], n_exchanges=3, oracle_calls=4)
        with pytest.raises(NoSatisfactoryFunctionError):
            index.query(LinearScoringFunction((1.0, 1.0)))

    def test_not_preprocessed_raises(self):
        index = TwoDIndex()
        with pytest.raises(NotPreprocessedError):
            index.query(LinearScoringFunction((1.0, 1.0)))

    def test_rejects_wrong_dimension(self):
        index = self.make_index()
        with pytest.raises(GeometryError):
            index.query(LinearScoringFunction((1.0, 1.0, 1.0)))

    @given(st.floats(0.01, HALF_PI - 0.01))
    @settings(max_examples=60, deadline=None)
    def test_always_satisfactory_oracle_accepts_everything(self, angle):
        dataset = Dataset(
            scores=np.array([[1.0, 2.0], [2.0, 1.0], [1.5, 1.5]]),
            scoring_attributes=["x", "y"],
        )
        oracle = CallableOracle(lambda ordering, data: True, "always true")
        index = TwoDRaySweep(dataset, oracle).run()
        result = index.query(LinearScoringFunction((math.cos(angle), math.sin(angle))))
        assert result.satisfactory

    def test_never_satisfactory_oracle(self):
        dataset = Dataset(
            scores=np.array([[1.0, 2.0], [2.0, 1.0]]), scoring_attributes=["x", "y"]
        )
        oracle = CallableOracle(lambda ordering, data: False, "always false")
        index = TwoDRaySweep(dataset, oracle).run()
        assert not index.has_satisfactory_region
        with pytest.raises(NoSatisfactoryFunctionError):
            index.query(LinearScoringFunction((1.0, 1.0)))


class TestMergedRegions:
    def test_adjacent_satisfactory_sectors_merge(self):
        """Neighbouring satisfactory sectors become one region (paper Figures 5-6)."""
        dataset = make_compas_like(n=25, seed=9).project(
            ["c_days_from_compas", "juv_other_count"]
        )
        oracle = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.4, slack=0.2
        )
        index = TwoDRaySweep(dataset, oracle).run()
        # Merged intervals must be disjoint and sorted.
        for before, after in zip(index.intervals, index.intervals[1:]):
            assert before.end < after.start
