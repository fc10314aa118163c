"""Cross-module integration tests.

These tests exercise full pipelines end-to-end on scenarios modelled after the
paper's narrative: the college-admissions example of the introduction, the
exact-vs-approximate agreement in 3 dimensions, and the consistency between
the 2-D ray sweep and a 2-attribute projection of the same data.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.approx import ApproximatePreprocessor, md_online
from repro.core.multi_dim import SatRegions, md_baseline
from repro.core.two_dim import TwoDRaySweep
from repro.data.synthetic import make_admissions_like, make_compas_like
from repro.exceptions import NoSatisfactoryFunctionError
from repro.fairness.measures import group_share_at_k, selection_rate_ratio
from repro.fairness.multi_attribute import MultiAttributeOracle
from repro.fairness.baselines import greedy_fair_rerank
from repro.fairness.proportional import ProportionalOracle, TopKGroupBoundOracle
from repro.ranking.queries import random_queries
from repro.ranking.scoring import LinearScoringFunction


class TestAdmissionsExample:
    """The paper's Example 1: equal GPA/SAT weights under-select women; a nearby fix exists."""

    @pytest.fixture(scope="class")
    def setup(self):
        dataset = make_admissions_like(n=800, seed=0, gap=0.12)
        k = 200
        oracle = ProportionalOracle("gender", "female", k=k, min_fraction=0.40)
        index = TwoDRaySweep(dataset, oracle).run()
        return dataset, oracle, k, index

    def test_proposed_weights_may_need_repair(self, setup):
        dataset, oracle, k, index = setup
        query = LinearScoringFunction((0.5, 0.5))
        result = index.query(query)
        assert oracle.evaluate_function(result.function, dataset)

    def test_suggested_function_raises_female_share(self, setup):
        dataset, oracle, k, index = setup
        sat_heavy = LinearScoringFunction((0.05, 0.95))
        result = index.query(sat_heavy)
        if result.satisfactory:
            pytest.skip("SAT-heavy weights already satisfy the constraint for this draw")
        before = group_share_at_k(dataset, sat_heavy.order(dataset), "gender", "female", k)
        after = group_share_at_k(dataset, result.function.order(dataset), "gender", "female", k)
        assert after >= before
        assert after >= 0.40 - 1e-9

    def test_output_intervention_baseline_agrees_on_share(self, setup):
        """The FA*IR-style re-ranker reaches the same share by editing the output instead."""
        dataset, oracle, k, index = setup
        sat_heavy = LinearScoringFunction((0.05, 0.95))
        reranked = greedy_fair_rerank(
            dataset, sat_heavy.order(dataset), "gender", "female", k=k, min_protected_fraction=0.40
        )
        assert group_share_at_k(dataset, reranked, "gender", "female", k) >= 0.40 - 1e-9


class TestExactVsApproximateAgreement:
    @pytest.fixture(scope="class")
    def setup(self):
        dataset = make_compas_like(n=22, seed=40).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        oracle = TopKGroupBoundOracle("race", "African-American", k=7, max_count=4)
        exact = SatRegions(dataset, oracle, max_hyperplanes=30).run()
        approx = ApproximatePreprocessor(dataset, oracle, n_cells=49, max_hyperplanes=30).run()
        return dataset, oracle, exact, approx

    def test_both_find_satisfiability(self, setup):
        _, _, exact, approx = setup
        assert exact.has_satisfactory_region == approx.has_satisfactory_function

    def test_both_answers_are_satisfactory(self, setup):
        dataset, oracle, exact, approx = setup
        for query in random_queries(3, 8, seed=41):
            exact_result = md_baseline(dataset, oracle, exact, query)
            approx_result = md_online(dataset, oracle, approx, query)
            assert oracle.evaluate_function(exact_result.function, dataset)
            assert oracle.evaluate_function(approx_result.function, dataset)
            assert exact_result.satisfactory == approx_result.satisfactory

    def test_approximate_distance_never_beats_exact(self, setup):
        """The exact answer is optimal, so the approximate one can never be closer."""
        dataset, oracle, exact, approx = setup
        for query in random_queries(3, 8, seed=42):
            if oracle.evaluate_function(query, dataset):
                continue
            exact_result = md_baseline(dataset, oracle, exact, query)
            approx_result = md_online(dataset, oracle, approx, query)
            assert approx_result.angular_distance >= exact_result.angular_distance - 1e-6


class TestTwoDConsistencyWithMeasures:
    def test_repair_improves_or_preserves_parity_measures(self):
        dataset = make_compas_like(n=120, seed=43).project(
            ["c_days_from_compas", "juv_other_count"]
        )
        k = 36
        oracle = TopKGroupBoundOracle("race", "African-American", k=k, max_count=int(0.6 * k))
        index = TwoDRaySweep(dataset, oracle).run()
        repaired = 0
        for query in random_queries(2, 20, seed=44):
            result = index.query(query)
            if result.satisfactory:
                continue
            repaired += 1
            before = group_share_at_k(
                dataset, query.order(dataset), "race", "African-American", k
            )
            after = group_share_at_k(
                dataset, result.function.order(dataset), "race", "African-American", k
            )
            assert after <= 0.6 + 1e-9
            assert after <= before + 1e-9
        assert repaired >= 1

    @pytest.mark.parametrize(
        "seed, satisfiable", [(45, False), (43, True)], ids=["unsatisfiable", "satisfiable"]
    )
    def test_selection_rate_ratio_moves_toward_parity(self, seed, satisfiable):
        dataset = make_compas_like(n=150, seed=seed).project(
            ["c_days_from_compas", "priors_count"]
        )
        k = 45
        oracle = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=k, slack=0.05
        )
        index = TwoDRaySweep(dataset, oracle).run()
        assert index.has_satisfactory_region == satisfiable
        queries = random_queries(2, 10, seed=46)
        if not satisfiable:
            with pytest.raises(NoSatisfactoryFunctionError):
                index.query(queries[0])
            return
        answered = [(query, index.query(query)) for query in queries]
        query, result = next(pair for pair in answered if not pair[1].satisfactory)
        before = selection_rate_ratio(
            dataset, query.order(dataset), "race", "African-American", k
        )
        after = selection_rate_ratio(
            dataset, result.function.order(dataset), "race", "African-American", k
        )
        # The protected group was over-selected before; the repair reduces the ratio.
        assert after <= before + 1e-9


class TestFM2EndToEnd:
    def test_multi_attribute_constraint_2d(self):
        dataset = make_compas_like(n=100, seed=47).project(
            ["juv_other_count", "c_days_from_compas"]
        )
        k = 30
        oracle = MultiAttributeOracle(
            [
                ("sex", "male", int(0.90 * k)),
                ("race", "African-American", int(0.60 * k)),
                ("age_bucketized", "30_or_younger", int(0.52 * k)),
            ],
            k=k,
        )
        index = TwoDRaySweep(dataset, oracle).run()
        if not index.has_satisfactory_region:
            pytest.skip("FM2 unsatisfiable for this draw")
        for query in random_queries(2, 10, seed=48):
            result = index.query(query)
            assert oracle.evaluate_function(result.function, dataset)

    def test_fm2_is_stricter_than_its_parts(self):
        dataset = make_compas_like(n=100, seed=49).project(
            ["juv_other_count", "c_days_from_compas"]
        )
        k = 30
        race_only = TopKGroupBoundOracle("race", "African-American", k=k, max_count=int(0.6 * k))
        fm2 = MultiAttributeOracle(
            [
                ("race", "African-American", int(0.6 * k)),
                ("sex", "male", int(0.8 * k)),
            ],
            k=k,
        )
        for query in random_queries(2, 20, seed=50):
            ordering = query.order(dataset)
            if fm2.is_satisfactory(ordering, dataset):
                assert race_only.is_satisfactory(ordering, dataset)


class TestPublicApiSurface:
    def test_top_level_imports(self):
        import repro

        assert repro.__version__ == "1.3.0"
        assert hasattr(repro, "FairRankingDesigner")
        assert hasattr(repro, "ProportionalOracle")
        assert hasattr(repro, "LinearScoringFunction")
        assert hasattr(repro, "Dataset")

    def test_exception_hierarchy(self):
        import repro

        assert issubclass(repro.NoSatisfactoryFunctionError, repro.ReproError)
        assert issubclass(repro.DatasetError, repro.ReproError)
        assert issubclass(repro.GeometryError, repro.ReproError)
