"""Tests for sampling-based preprocessing (§5.4) and the FairRankingDesigner facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import ApproxConfig, ExactConfig, TwoDConfig
from repro.core.sampling import preprocess_with_sampling, validate_index_on_dataset
from repro.core.system import FairRankingDesigner
from repro.data.synthetic import make_compas_like, make_dot_like
from repro.exceptions import ConfigurationError, NotPreprocessedError
from repro.fairness.oracle import CallableOracle
from repro.fairness.proportional import ProportionalOracle, TopKGroupBoundOracle
from repro.ranking.queries import random_queries
from repro.ranking.scoring import LinearScoringFunction


class TestSampling:
    def test_sample_size_must_fit(self):
        dataset = make_dot_like(n=100, seed=0)
        oracle = CallableOracle(lambda ordering, data: True, "always")
        with pytest.raises(ConfigurationError):
            preprocess_with_sampling(dataset, oracle, sample_size=200, n_cells=4)

    def test_validation_report_on_permissive_oracle(self):
        dataset = make_dot_like(n=2000, seed=1)
        oracle = ProportionalOracle.at_most_share_plus_slack(
            dataset, "carrier", "WN", k=0.1, slack=0.15
        )
        index = preprocess_with_sampling(
            dataset, oracle, sample_size=200, n_cells=36, max_hyperplanes=60, seed=1
        )
        report = validate_index_on_dataset(index, dataset, oracle)
        assert report.n_functions_checked >= 1
        assert 0.0 <= report.fraction_satisfactory <= 1.0

    def test_sample_index_functions_mostly_hold_on_full_data(self):
        """The §6.4 claim: sample-satisfactory functions stay satisfactory on the full data."""
        dataset = make_dot_like(n=5000, seed=2)
        oracle = ProportionalOracle.at_most_share_plus_slack(
            dataset, "carrier", "WN", k=0.1, slack=0.12
        )
        index = preprocess_with_sampling(
            dataset, oracle, sample_size=200, n_cells=36, max_hyperplanes=60, seed=2
        )
        report = validate_index_on_dataset(index, dataset, oracle)
        assert report.n_functions_checked >= 1
        assert report.fraction_satisfactory >= 0.75

    def test_empty_report_when_unsatisfiable(self):
        dataset = make_dot_like(n=300, seed=3)
        oracle = CallableOracle(lambda ordering, data: False, "never")
        index = preprocess_with_sampling(
            dataset, oracle, sample_size=40, n_cells=9, max_hyperplanes=10, seed=3
        )
        report = validate_index_on_dataset(index, dataset, oracle)
        assert report.n_functions_checked == 0
        assert not report.all_satisfactory


class TestFairRankingDesignerModes:
    def test_auto_picks_2d(self):
        dataset = make_compas_like(n=40, seed=20).project(
            ["c_days_from_compas", "juv_other_count"]
        )
        oracle = TopKGroupBoundOracle("race", "African-American", k=10, max_count=7)
        designer = FairRankingDesigner(dataset, oracle)
        assert designer.mode == "2d"

    def test_auto_picks_approximate_for_md(self):
        dataset = make_compas_like(n=20, seed=21).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        oracle = TopKGroupBoundOracle("race", "African-American", k=6, max_count=4)
        designer = FairRankingDesigner(dataset, oracle)
        assert designer.mode == "approximate"

    def test_invalid_mode_combinations(self):
        dataset_2d = make_compas_like(n=20, seed=22).project(
            ["c_days_from_compas", "juv_other_count"]
        )
        dataset_3d = make_compas_like(n=20, seed=22).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        oracle = CallableOracle(lambda ordering, data: True, "always")
        with pytest.raises(ConfigurationError):
            FairRankingDesigner(dataset_2d, oracle, ExactConfig())
        with pytest.raises(ConfigurationError):
            FairRankingDesigner(dataset_3d, oracle, TwoDConfig())
        # A third argument that is not an engine config is rejected.
        with pytest.raises(ConfigurationError):
            FairRankingDesigner(dataset_2d, oracle, "bogus")

    def test_query_before_preprocess_raises(self):
        dataset = make_compas_like(n=20, seed=23).project(
            ["c_days_from_compas", "juv_other_count"]
        )
        oracle = CallableOracle(lambda ordering, data: True, "always")
        designer = FairRankingDesigner(dataset, oracle)
        assert not designer.is_preprocessed
        with pytest.raises(NotPreprocessedError):
            designer.suggest([0.5, 0.5])

    def test_2d_end_to_end(self):
        dataset = make_compas_like(n=60, seed=24).project(
            ["c_days_from_compas", "juv_other_count"]
        )
        oracle = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.15
        )
        designer = FairRankingDesigner(dataset, oracle).preprocess()
        if not designer.index.has_satisfactory_region:
            pytest.skip("constraint unsatisfiable for this draw")
        result = designer.suggest([0.5, 0.5])
        assert oracle.evaluate_function(result.function, dataset)
        assert designer.check(result.function)

    def test_exact_mode_end_to_end(self):
        dataset = make_compas_like(n=15, seed=25).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        oracle = TopKGroupBoundOracle("race", "African-American", k=5, max_count=3)
        designer = FairRankingDesigner(
            dataset, oracle, ExactConfig(max_hyperplanes=20)
        ).preprocess()
        for query in random_queries(3, 5, seed=3):
            result = designer.suggest(query)
            assert oracle.evaluate_function(result.function, dataset)

    def test_approximate_mode_end_to_end(self):
        dataset = make_compas_like(n=25, seed=26).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        oracle = TopKGroupBoundOracle("race", "African-American", k=8, max_count=5)
        designer = FairRankingDesigner(
            dataset, oracle, ApproxConfig(n_cells=25, max_hyperplanes=25)
        ).preprocess()
        for query in random_queries(3, 5, seed=4):
            result = designer.suggest(query)
            assert oracle.evaluate_function(result.function, dataset)

    def test_sample_size_option(self):
        dataset = make_compas_like(n=200, seed=27).project(
            ["c_days_from_compas", "juv_other_count"]
        )
        oracle = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.20
        )
        designer = FairRankingDesigner(dataset, oracle, TwoDConfig(sample_size=50)).preprocess()
        assert designer.is_preprocessed
        if not designer.index.has_satisfactory_region:
            pytest.skip("constraint unsatisfiable for this sample")
        result = designer.suggest([0.5, 0.5])
        assert result.function.dimension == 2

    def test_weight_dimension_validated(self):
        dataset = make_compas_like(n=20, seed=28).project(
            ["c_days_from_compas", "juv_other_count"]
        )
        oracle = CallableOracle(lambda ordering, data: True, "always")
        designer = FairRankingDesigner(dataset, oracle).preprocess()
        with pytest.raises(ConfigurationError):
            designer.suggest([0.5, 0.3, 0.2])

    def test_accepts_function_objects_and_lists(self):
        dataset = make_compas_like(n=20, seed=29).project(
            ["c_days_from_compas", "juv_other_count"]
        )
        oracle = CallableOracle(lambda ordering, data: True, "always")
        designer = FairRankingDesigner(dataset, oracle).preprocess()
        assert designer.suggest([0.5, 0.5]).satisfactory
        assert designer.suggest(LinearScoringFunction((0.5, 0.5))).satisfactory

    def test_index_property_requires_preprocess(self):
        dataset = make_compas_like(n=20, seed=30).project(
            ["c_days_from_compas", "juv_other_count"]
        )
        oracle = CallableOracle(lambda ordering, data: True, "always")
        designer = FairRankingDesigner(dataset, oracle)
        with pytest.raises(NotPreprocessedError):
            _ = designer.index

    def test_suggestion_result_cosine(self):
        dataset = make_compas_like(n=40, seed=31).project(
            ["c_days_from_compas", "juv_other_count"]
        )
        oracle = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
        designer = FairRankingDesigner(dataset, oracle).preprocess()
        result = designer.suggest([1.0, 0.01])
        assert -1.0 <= result.cosine_similarity() <= 1.0
        assert result.cosine_similarity() == pytest.approx(np.cos(result.angular_distance))
