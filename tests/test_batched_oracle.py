"""Equivalence tests for the batched-oracle protocol and the paths it feeds.

The anchor is the black-box reference: for every oracle type,
``is_satisfactory_many`` over a ``(q, n)`` ordering stack must equal a Python
loop of ``is_satisfactory`` — exactly, row for row — and the batched serving
paths (``ApproxEngine.suggest_many``, the §5.4 sample validation,
``MDBASELINE``'s candidate re-validation) must return bit-identical answers
and unchanged oracle-call counts whether the oracle is batched or a black
box.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.exchanges import build_exchange_hyperplanes_reference

from repro.core.approx import ApproximatePreprocessor, MDApproxIndex, md_online_lookup
from repro.core.engine import ApproxConfig, ExactConfig, create_engine
from repro.core.multi_dim import SatRegions, exchange_hyperplanes
from repro.core.sampling import validate_index_on_dataset
from repro.data.dataset import Dataset
from repro.data.synthetic import make_compas_like
from repro.exceptions import OracleError
from repro.fairness.batched import (
    as_batched,
    evaluate_functions_many,
    evaluate_many,
)
from repro.fairness.composite import AndOracle, NotOracle, OrOracle
from repro.fairness.multi_attribute import MultiAttributeOracle
from repro.fairness.oracle import CallableOracle, CountingOracle
from repro.fairness.pairwise import PairwiseParityOracle
from repro.fairness.prefix import MinimumAtEveryPrefixOracle, PrefixProportionalOracle
from repro.fairness.proportional import ProportionalOracle, TopKGroupBoundOracle
from repro.geometry.angles import angular_distance_angles
from repro.geometry.dual import hyperplanes_for_dataset
from repro.ranking.scoring import LinearScoringFunction, order_many


def _compas(n: int, seed: int, d: int = 2) -> Dataset:
    attributes = ["c_days_from_compas", "juv_other_count", "start"][:d]
    return make_compas_like(n=n, seed=seed).project(attributes)


def _oracle_zoo(dataset: Dataset) -> list:
    """One oracle of every batched-capable flavour, on the given dataset."""
    fm1 = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.10
    )
    both_sides = ProportionalOracle(
        "race", "African-American", k=0.4, min_fraction=0.2, max_fraction=0.7
    )
    bound = TopKGroupBoundOracle("sex", "male", k=10, min_count=2, max_count=8)
    prefix = PrefixProportionalOracle(
        "race", "African-American", k=0.4, max_fraction=0.8, min_prefix=3
    )
    fair = MinimumAtEveryPrefixOracle("sex", "male", k=12, target_fraction=0.3)
    fm2 = MultiAttributeOracle.from_dataset_shares(
        dataset, {"sex": ["male"], "race": ["African-American"]}, k=0.3
    )
    pairwise = PairwiseParityOracle("sex", "male", max_gap=0.2)
    return [
        fm1,
        both_sides,
        bound,
        prefix,
        fair,
        fm2,
        pairwise,
        AndOracle([fm1, bound]),
        OrOracle([both_sides, fair]),
        NotOracle(prefix),
        CountingOracle(both_sides),
        AndOracle([OrOracle([bound, pairwise]), NotOracle(fair)]),
    ]


class TestBatchedProtocolEquivalence:
    @pytest.mark.perf_smoke
    @pytest.mark.parametrize("oracle_index", range(12))
    def test_is_satisfactory_many_matches_scalar_loop(self, oracle_index):
        dataset = _compas(50, seed=11)
        oracle = _oracle_zoo(dataset)[oracle_index]
        batched = as_batched(oracle)
        assert batched is not None

        rng = np.random.default_rng(oracle_index)
        orderings = np.stack([rng.permutation(dataset.n_items) for _ in range(60)])
        verdicts = batched.is_satisfactory_many(orderings, dataset)
        expected = [oracle.is_satisfactory(row, dataset) for row in orderings]
        assert np.asarray(verdicts).tolist() == expected

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_evaluate_many_matches_scalar_loop_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        dataset = _compas(30, seed=seed % 17)
        orderings = np.stack([rng.permutation(dataset.n_items) for _ in range(12)])
        for oracle in _oracle_zoo(dataset):
            verdicts = evaluate_many(oracle, orderings, dataset)
            assert verdicts.tolist() == [
                oracle.is_satisfactory(row, dataset) for row in orderings
            ]

    def test_black_box_fallback_path(self):
        dataset = _compas(25, seed=3)
        fm1 = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
        black_box = CallableOracle(fm1.is_satisfactory, "wrapped fm1")
        assert as_batched(black_box) is None
        rng = np.random.default_rng(5)
        orderings = np.stack([rng.permutation(dataset.n_items) for _ in range(20)])
        # evaluate_many falls back to the loop and still answers correctly.
        assert evaluate_many(black_box, orderings, dataset).tolist() == [
            fm1.is_satisfactory(row, dataset) for row in orderings
        ]
        # A composite with one black-box leaf stays batched-capable (the
        # protocol is stateless): the capable child batches, the black-box
        # leaf is looped per row, and verdicts match the scalar loop.
        mixed = AndOracle([fm1, black_box])
        assert as_batched(mixed) is not None
        assert mixed.is_satisfactory_many(orderings, dataset).tolist() == [
            mixed.is_satisfactory(row, dataset) for row in orderings
        ]

    def test_ordering_matrix_shape_validated(self):
        dataset = _compas(20, seed=1)
        oracle = _oracle_zoo(dataset)[0]
        with pytest.raises(OracleError):
            as_batched(oracle).is_satisfactory_many(np.arange(dataset.n_items), dataset)

    def test_evaluate_functions_many_matches_evaluate_function(self):
        dataset = _compas(40, seed=9)
        rng = np.random.default_rng(2)
        functions = [
            LinearScoringFunction(tuple(np.abs(rng.normal(size=2)) + 1e-9))
            for _ in range(25)
        ]
        for oracle in _oracle_zoo(dataset):
            verdicts = evaluate_functions_many(oracle, dataset, functions)
            assert verdicts.tolist() == [
                oracle.evaluate_function(function, dataset) for function in functions
            ]
        assert evaluate_functions_many(_oracle_zoo(dataset)[0], dataset, []).shape == (0,)


class TestAsBatchedGuards:
    def test_black_box_oracles_are_not_batched(self):
        callable_oracle = CallableOracle(lambda ordering, dataset: True, "always")
        assert as_batched(callable_oracle) is None
        # A counting wrapper is only as capable as what it wraps.
        assert as_batched(CountingOracle(callable_oracle)) is None
        dataset = _compas(20, seed=0)
        fm1 = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
        assert as_batched(CountingOracle(fm1)) is not None
        # Composites with a black-box leaf remain capable (unlike the
        # incremental protocol): the leaf is looped per row inside the batch.
        assert as_batched(AndOracle([fm1, callable_oracle])) is not None

    def test_shared_oracle_instance_in_composite_falls_back(self):
        dataset = _compas(20, seed=4)
        leaf = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
        assert as_batched(AndOracle([leaf, leaf])) is None
        assert as_batched(OrOracle([leaf, AndOracle([leaf])])) is None

    def test_subclass_overriding_is_satisfactory_falls_back(self):
        class StricterOracle(ProportionalOracle):
            def is_satisfactory(self, ordering, dataset) -> bool:
                return super().is_satisfactory(ordering, dataset) and int(ordering[0]) % 2 == 0

        stricter = StricterOracle("race", "African-American", k=10, max_fraction=0.7)
        assert as_batched(stricter) is None
        # evaluate_many then routes through the override, not the parent kernel.
        dataset = _compas(20, seed=6)
        rng = np.random.default_rng(0)
        orderings = np.stack([rng.permutation(dataset.n_items) for _ in range(10)])
        assert evaluate_many(stricter, orderings, dataset).tolist() == [
            stricter.is_satisfactory(row, dataset) for row in orderings
        ]


class TestCountingOracle:
    @pytest.mark.parametrize("combiner", [AndOracle, OrOracle])
    def test_nested_counting_children_match_the_scalar_short_circuit(self, combiner):
        """Regression: And/Or must short-circuit per row in batched mode too.

        A counting child inside a composite sees a row only when the scalar
        ``all``/``any`` would have evaluated it there, so call totals are
        identical between is_satisfactory_many and a loop of is_satisfactory.
        """
        dataset = _compas(40, seed=7)
        rng = np.random.default_rng(7)
        orderings = np.stack([rng.permutation(dataset.n_items) for _ in range(30)])

        def tree(factory):
            first = factory(TopKGroupBoundOracle("sex", "male", k=10, max_count=6))
            second = factory(
                ProportionalOracle("race", "African-American", k=0.4, max_fraction=0.6)
            )
            return combiner([first, second]), first, second

        batched_tree, batched_first, batched_second = tree(CountingOracle)
        scalar_tree, scalar_first, scalar_second = tree(CountingOracle)
        verdicts = batched_tree.is_satisfactory_many(orderings, dataset)
        expected = [scalar_tree.is_satisfactory(row, dataset) for row in orderings]
        assert verdicts.tolist() == expected
        assert batched_first.calls == scalar_first.calls
        assert batched_second.calls == scalar_second.calls
        # The short-circuit is real: the second child saw only a subset.
        assert batched_second.calls < orderings.shape[0] or all(
            (verdicts if combiner is AndOracle else ~verdicts)
        )

    def test_counts_one_call_per_ordering(self):
        dataset = _compas(20, seed=1)
        fm1 = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
        counting = CountingOracle(fm1)
        rng = np.random.default_rng(1)
        orderings = np.stack([rng.permutation(dataset.n_items) for _ in range(17)])
        counting.is_satisfactory_many(orderings, dataset)
        assert counting.calls == 17

    def test_incremental_forwarding_guarded_for_black_box_inner(self):
        """Regression: begin/apply_swap/verdict used to raise AttributeError."""
        dataset = _compas(15, seed=2)
        counting = CountingOracle(CallableOracle(lambda ordering, data: True, "always"))
        assert not counting.incremental_capable()
        with pytest.raises(OracleError):
            counting.begin(np.arange(dataset.n_items), dataset)
        with pytest.raises(OracleError):
            counting.apply_swap(0, 1)
        with pytest.raises(OracleError):
            counting.verdict()
        # The black-box route keeps working (and counting) as documented.
        assert counting.is_satisfactory(np.arange(dataset.n_items), dataset)
        assert counting.calls == 1

    def test_incremental_forwarding_still_works_for_capable_inner(self):
        dataset = _compas(20, seed=3)
        fm1 = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
        counting = CountingOracle(fm1)
        ordering = np.arange(dataset.n_items)
        counting.begin(ordering.copy(), dataset)
        assert counting.verdict() == fm1.is_satisfactory(ordering, dataset)
        counting.apply_swap(0, 5)
        ordering[0], ordering[5] = ordering[5], ordering[0]
        assert counting.verdict() == fm1.is_satisfactory(ordering, dataset)
        assert counting.calls == 2


class TestOrderMany:
    @pytest.mark.perf_smoke
    @pytest.mark.parametrize("d", [2, 3])
    def test_order_many_matches_per_function_order(self, d):
        dataset = _compas(80, seed=8, d=d)
        rng = np.random.default_rng(d)
        weight_matrix = np.abs(rng.normal(size=(50, d))) + 1e-9
        orderings = order_many(dataset, weight_matrix)
        for row, weights in zip(orderings, weight_matrix):
            expected = LinearScoringFunction(tuple(weights)).order(dataset)
            assert np.array_equal(row, expected)

    def test_order_many_with_score_ties_matches(self):
        scores = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [1.5, 1.5]])
        dataset = Dataset(scores=scores, scoring_attributes=["x", "y"])
        weight_matrix = np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]])
        orderings = order_many(dataset, weight_matrix)
        for row, weights in zip(orderings, weight_matrix.tolist()):
            expected = LinearScoringFunction(tuple(weights)).order(dataset)
            assert np.array_equal(row, expected)


class TestHyperplaneCap:
    @pytest.mark.parametrize(
        "uncapped_builder",
        [
            pytest.param(hyperplanes_for_dataset, id="batched"),
            pytest.param(build_exchange_hyperplanes_reference, id="scalar"),
        ],
    )
    def test_capped_construction_equals_uncapped_prefix(self, uncapped_builder):
        dataset = _compas(25, seed=12, d=3)
        full = uncapped_builder(dataset)
        for cap in (0, 1, 7, len(full), len(full) + 10):
            capped = hyperplanes_for_dataset(
                dataset, max_hyperplanes=cap, pair_chunk_size=3
            )
            assert capped == full[:cap]

    def test_preprocessor_and_satregions_honor_the_cap(self):
        dataset = _compas(25, seed=13, d=3)
        oracle = CallableOracle(lambda ordering, data: True, "always")
        full = hyperplanes_for_dataset(dataset)
        approx = ApproximatePreprocessor(dataset, oracle, n_cells=9, max_hyperplanes=10).run()
        exact = SatRegions(dataset, oracle, max_hyperplanes=10).build_hyperplanes()
        assert exchange_hyperplanes(dataset, max_hyperplanes=10) == full[:10]
        assert approx.n_hyperplanes == 10
        assert exact == full[:10]


class TestNearestAssignedFallback:
    def _index_with_holes(self) -> tuple[MDApproxIndex, list]:
        dataset = _compas(35, seed=14, d=3)
        oracle = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.15
        )
        built = ApproximatePreprocessor(
            dataset, oracle, n_cells=36, max_hyperplanes=40
        ).run()
        assert built.has_satisfactory_function
        # Punch holes: clear every third assignment to force the fallback.
        assigned = [
            None if position % 3 == 0 else angles
            for position, angles in enumerate(built.assigned_angles)
        ]
        if all(angles is None for angles in assigned):
            pytest.skip("degenerate draw: nothing left assigned")
        index = MDApproxIndex(
            partition=built.partition,
            assigned_angles=assigned,
            marked=list(built.marked),
        )
        return index, assigned

    def test_vectorized_argmin_matches_reference_scan(self):
        index, assigned = self._index_with_holes()
        rng = np.random.default_rng(15)
        for _ in range(30):
            query_angles = rng.uniform(0.0, np.pi / 2.0, size=index.partition.dimension)
            # The seed implementation: a per-cell Python scan, first minimum wins.
            reference = min(
                (
                    (angular_distance_angles(angles, query_angles), angles)
                    for angles in assigned
                    if angles is not None
                ),
                key=lambda pair: pair[0],
            )[1]
            chosen = index.nearest_assigned_angles(query_angles)
            assert np.array_equal(chosen, reference)

    def test_lookup_answers_are_unchanged_in_holed_cells(self):
        index, assigned = self._index_with_holes()
        cells = index.partition.cells()
        holed = [cell for cell in cells if assigned[cell.index] is None][:10]
        for cell in holed:
            query = LinearScoringFunction.from_angles(cell.center(), radius=1.3)
            result = md_online_lookup(index, query)
            query_angles = query.to_angles()
            reference = min(
                (
                    (angular_distance_angles(angles, query_angles), angles)
                    for angles in assigned
                    if angles is not None
                ),
                key=lambda pair: pair[0],
            )[1]
            expected_distance = angular_distance_angles(query_angles, np.asarray(reference))
            assert result.angular_distance == expected_distance
            assert result.function.weights == LinearScoringFunction.from_angles(
                np.asarray(reference), radius=float(np.linalg.norm(query.as_array()))
            ).weights


class TestBatchedServingPaths:
    @pytest.fixture(scope="class")
    def md_setup(self):
        dataset = _compas(50, seed=16, d=3)
        fm1 = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
        return dataset, fm1

    @pytest.mark.perf_smoke
    def test_suggest_many_bit_identical_to_suggest_loop_and_fallback(self, md_setup):
        dataset, fm1 = md_setup
        batched_counting = CountingOracle(fm1)
        black_box_counting = CountingOracle(CallableOracle(fm1.is_satisfactory, "bb"))
        config = ApproxConfig(n_cells=49, max_hyperplanes=40)
        batched_engine = create_engine(dataset, batched_counting, config).preprocess()
        fallback_engine = create_engine(dataset, black_box_counting, config).preprocess()

        rng = np.random.default_rng(17)
        queries = np.abs(rng.normal(size=(120, 3)))
        queries[np.all(queries == 0.0, axis=1)] = 1.0
        batched_counting.reset()
        black_box_counting.reset()
        batched_results = batched_engine.suggest_many(queries)
        fallback_results = fallback_engine.suggest_many(queries)
        loop_results = [
            batched_engine.suggest(LinearScoringFunction(tuple(row)))
            for row in queries.tolist()
        ]
        assert batched_results == loop_results
        assert batched_results == fallback_results
        # One oracle call per query on every route (the loop adds another 120).
        assert black_box_counting.calls == 120
        assert batched_counting.calls == 240

    def test_exact_engine_revalidation_identical_across_routes(self, md_setup):
        dataset, fm1 = md_setup
        batched_counting = CountingOracle(fm1)
        black_box_counting = CountingOracle(CallableOracle(fm1.is_satisfactory, "bb"))
        config = ExactConfig(max_hyperplanes=20)
        batched_engine = create_engine(dataset, batched_counting, config).preprocess()
        fallback_engine = create_engine(dataset, black_box_counting, config).preprocess()
        rng = np.random.default_rng(18)
        queries = np.abs(rng.normal(size=(6, 3)))
        queries[np.all(queries == 0.0, axis=1)] = 1.0
        batched_counting.reset()
        black_box_counting.reset()
        batched_results = batched_engine.suggest_many(queries)
        fallback_results = fallback_engine.suggest_many(queries)
        assert batched_results == fallback_results
        assert batched_counting.calls == black_box_counting.calls

    def test_sample_validation_identical_across_routes(self, md_setup):
        dataset, fm1 = md_setup
        index = ApproximatePreprocessor(
            dataset, fm1, n_cells=25, max_hyperplanes=30
        ).run()
        batched_counting = CountingOracle(fm1)
        black_box_counting = CountingOracle(CallableOracle(fm1.is_satisfactory, "bb"))
        batched_report = validate_index_on_dataset(index, dataset, batched_counting)
        fallback_report = validate_index_on_dataset(index, dataset, black_box_counting)
        assert batched_report == fallback_report
        assert batched_counting.calls == black_box_counting.calls
