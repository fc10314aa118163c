"""Equivalence tests for the oracles' batch kernels and the paths they feed.

The anchor is the black-box reference: for every oracle type,
``is_satisfactory_many`` over a ``(q, n)`` ordering stack must equal a Python
loop of ``is_satisfactory`` — exactly, row for row, with the same counted
calls.  That loop is ``FairnessOracle.is_satisfactory_many`` itself, the
batch route of every black box and of every subclass that redefines
``is_satisfactory`` without a kernel of its own.  The batched serving paths
(``ApproxEngine.suggest_many``, the §5.4 sample validation, ``MDBASELINE``'s
candidate re-validation) must return bit-identical answers and unchanged
oracle-call counts whether the oracle has a kernel or is a black box.

The ordering kernel feeding the batched route, ``order_many``, sorts unstably
and re-sorts only tied rows; it is checked against its stable reference
(``tests/reference/ordering.py``) on duplicate rows, an integer grid, signed
zeros, all-equal scores, tiny inputs and three weight-matrix layouts, and
whole engines served with the reference (``differential.stable_orderings``)
must give the same answers, oracle calls, payload bytes and §5.4 validation
report.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from differential import assert_engines_equivalent, make_weight_grid, stable_orderings
from reference.exchanges import build_exchange_hyperplanes_reference
from reference.angles import to_weights_loop
from reference.ordering import order_many_stable

from repro.core.approx import ApproximatePreprocessor
from repro.core.engine import ApproxConfig, ExactConfig, create_engine
from repro.core.multi_dim import SatRegions, exchange_hyperplanes
from repro.core.sampling import validate_index_on_dataset
from repro.data.dataset import Dataset
from repro.data.synthetic import make_compas_like
from repro.exceptions import OracleError
from repro.fairness.batched import evaluate_functions_many, evaluate_many
from repro.fairness.composite import AndOracle, NotOracle, OrOracle
from repro.fairness.multi_attribute import MultiAttributeOracle
from repro.fairness.oracle import CallableOracle, CountingOracle, FairnessOracle
from repro.fairness.pairwise import PairwiseParityOracle
from repro.fairness.prefix import MinimumAtEveryPrefixOracle, PrefixProportionalOracle
from repro.fairness.proportional import ProportionalOracle, TopKGroupBoundOracle
from repro.geometry.angles import HALF_PI, to_weights_many
from repro.geometry.dual import hyperplanes_for_dataset
from repro.obs.instrument import InstrumentedOracle
from repro.obs.trace import TraceRecorder
from repro.ranking import scoring
from repro.ranking.scoring import LinearScoringFunction, order_many


def _compas(n: int, seed: int, d: int = 2) -> Dataset:
    attributes = ["c_days_from_compas", "juv_other_count", "start"][:d]
    return make_compas_like(n=n, seed=seed).project(attributes)


def _dataset_of(scores: np.ndarray) -> Dataset:
    return Dataset(
        scores=np.asarray(scores, dtype=float),
        scoring_attributes=[f"a{column}" for column in range(np.shape(scores)[1])],
    )


def _tied_rows(dataset: Dataset, weight_matrix: np.ndarray) -> np.ndarray:
    """Whether each weight row gives two items equal scores (``-0.0 == 0.0``)."""
    return np.array(
        [
            np.unique(LinearScoringFunction(tuple(weights)).score(dataset)).size
            < dataset.n_items
            for weights in np.asarray(weight_matrix).tolist()
        ],
        dtype=bool,
    )


def _assert_orders_like_the_references(dataset: Dataset, weight_matrix: np.ndarray):
    """``order_many`` equals the stable reference and per-function ``order``, row for row."""
    orderings = order_many(dataset, weight_matrix)
    assert np.array_equal(orderings, order_many_stable(dataset, weight_matrix))
    for row, weights in zip(orderings, np.asarray(weight_matrix).tolist()):
        assert np.array_equal(row, LinearScoringFunction(tuple(weights)).order(dataset))
    return orderings


def _mixed_batch(tied_weights, d: int, seed: int) -> np.ndarray:
    """Generic random weight rows shuffled together with the given tie-making rows."""
    rng = np.random.default_rng(seed)
    generic = np.abs(rng.normal(size=(12, d))) + 1e-3
    rows = np.vstack([generic, np.asarray(tied_weights, dtype=float)])
    return rows[rng.permutation(len(rows))]


def _ordering_cases() -> dict:
    rng = np.random.default_rng(20)
    continuous = rng.random((60, 3))
    grid = np.array(list(itertools.product(range(5), repeat=3)), dtype=float)
    signed_zeros = [[-0.0, -0.0, 0.3], [0.0, -0.0, 0.7], [-0.0, 0.4, -0.0], [0.0, 0.0, 0.9]]
    return {
        "duplicate-rows": (
            np.vstack([continuous, continuous[::3]]),
            _mixed_batch([[1.0, 0.0, 0.0]], 3, seed=1),
            True,
        ),
        "integer-grid": (
            grid[rng.permutation(len(grid))[:70]],
            _mixed_batch([[1, 0, 0], [1, 1, 0], [1, 1, 1], [2, 1, 3]], 3, seed=2),
            False,
        ),
        "signed-zeros": (
            np.vstack([continuous[:40], signed_zeros]),
            _mixed_batch([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], 3, seed=3),
            False,
        ),
        "all-scores-equal": (
            np.column_stack([np.full(50, 2.0), rng.random((50, 2))]),
            _mixed_batch([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]], 3, seed=4),
            False,
        ),
    }


#: ``case -> (dataset scores, weight matrix, whether every row ties)``: each
#: batch shuffles generic rows together with rows that tie items, and on
#: duplicate dataset rows every row ties.
ORDERING_CASES = _ordering_cases()


def _strided(matrix: np.ndarray) -> np.ndarray:
    wide = np.zeros((2 * matrix.shape[0], 2 * matrix.shape[1]))
    wide[::2, ::2] = matrix
    return wide[::2, ::2]


#: Memory layouts of the weight matrix, none of which may change an ordering.
WEIGHT_LAYOUTS = {
    "c-order": np.ascontiguousarray,
    "fortran": np.asfortranarray,
    "strided": _strided,
}


def _oracle_zoo(dataset: Dataset) -> list:
    """One oracle of every flavour with a batch kernel, on the given dataset."""
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


def _random_orderings(dataset: Dataset, q: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(dataset.n_items) for _ in range(q)])


def _assert_batch_is_the_loop(oracle, counter: CountingOracle, orderings, dataset):
    """``is_satisfactory_many`` gives the ``is_satisfactory`` loop's verdicts,
    and ``counter``, a ``CountingOracle`` inside ``oracle``, the loop's total."""
    counter.reset()
    verdicts = oracle.is_satisfactory_many(orderings, dataset).tolist()
    batched_calls = counter.calls
    counter.reset()
    assert verdicts == [oracle.is_satisfactory(row, dataset) for row in orderings]
    assert batched_calls == counter.calls > 0


class TestBatchedProtocolEquivalence:
    @pytest.mark.perf_smoke
    @pytest.mark.parametrize("oracle_index", range(12))
    def test_is_satisfactory_many_matches_scalar_loop(self, oracle_index):
        dataset = _compas(50, seed=11)
        oracle = _oracle_zoo(dataset)[oracle_index]
        assert type(oracle).is_satisfactory_many is not FairnessOracle.is_satisfactory_many

        orderings = _random_orderings(dataset, 60, seed=oracle_index)
        verdicts = oracle.is_satisfactory_many(orderings, dataset)
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
        leaf = CountingOracle(fm1)
        black_box = CallableOracle(leaf.is_satisfactory, "wrapped fm1")
        orderings = _random_orderings(dataset, 20, seed=5)
        # The black box batches with the base loop, one leaf call per row.
        _assert_batch_is_the_loop(black_box, leaf, orderings, dataset)
        assert leaf.calls == len(orderings)
        assert evaluate_many(black_box, orderings, dataset).tolist() == [
            fm1.is_satisfactory(row, dataset) for row in orderings
        ]
        # A composite with one black-box leaf batches its kernel child and
        # loops the black box only over the rows the kernel left open.
        mixed = AndOracle([fm1, black_box])
        _assert_batch_is_the_loop(mixed, leaf, orderings, dataset)

    def test_ordering_matrix_shape_validated(self):
        dataset = _compas(20, seed=1)
        black_box = CallableOracle(lambda ordering, data: True, "always")
        for oracle in (_oracle_zoo(dataset)[0], black_box):
            with pytest.raises(OracleError):
                oracle.is_satisfactory_many(np.arange(dataset.n_items), dataset)

    def test_evaluate_functions_many_matches_evaluate_function(self):
        dataset = _compas(40, seed=9)
        rng = np.random.default_rng(2)
        functions = [
            LinearScoringFunction(tuple(np.abs(rng.normal(size=2)) + 1e-9))
            for _ in range(25)
        ]
        leaf = CountingOracle(_oracle_zoo(dataset)[0])
        black_box = CallableOracle(leaf.is_satisfactory, "wrapped fm1")
        for oracle in [*_oracle_zoo(dataset), black_box, CountingOracle(black_box)]:
            counters = [leaf, oracle] if isinstance(oracle, CountingOracle) else [leaf]
            totals = []
            for route in (
                lambda: evaluate_functions_many(oracle, dataset, functions).tolist(),
                lambda: [oracle.evaluate_function(function, dataset) for function in functions],
            ):
                for counter in counters:
                    counter.reset()
                totals.append((route(), [counter.calls for counter in counters]))
            assert totals[0] == totals[1]
        assert leaf.calls == len(functions)
        assert evaluate_functions_many(_oracle_zoo(dataset)[0], dataset, []).shape == (0,)


class StricterOracle(ProportionalOracle):
    """FM1, and the top item's index must be even."""

    def is_satisfactory(self, ordering, dataset) -> bool:
        return super().is_satisfactory(ordering, dataset) and int(ordering[0]) % 2 == 0


class _EvenTopItem:
    """The same extra rule in a plain mixin."""

    def is_satisfactory(self, ordering, dataset) -> bool:
        return super().is_satisfactory(ordering, dataset) and int(ordering[0]) % 2 == 0


class MixinStricterOracle(_EvenTopItem, ProportionalOracle):
    """``StricterOracle`` with its rule from a mixin ahead of the kernel's class."""


class TestBaseBatchLoop:
    """Oracles without a kernel of their own batch with ``FairnessOracle``'s loop."""

    def test_black_box_oracles_batch_with_the_loop(self):
        dataset = _compas(20, seed=0)
        fm1 = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
        leaf = CountingOracle(fm1)
        callable_oracle = CallableOracle(leaf.is_satisfactory, "wrapped fm1")
        assert CallableOracle.is_satisfactory_many is FairnessOracle.is_satisfactory_many
        orderings = _random_orderings(dataset, 15, seed=0)
        # A counting wrapper forwards a batch to what it wraps: the base loop
        # of a black box, or a kernel.
        _assert_batch_is_the_loop(CountingOracle(callable_oracle), leaf, orderings, dataset)
        _assert_batch_is_the_loop(CountingOracle(leaf), leaf, orderings, dataset)
        # Instrumented, a black box's batch is one labelled call and one span.
        recorder = TraceRecorder()
        observed = InstrumentedOracle(callable_oracle, recorder=recorder)
        evaluate_many(observed, orderings, dataset)
        calls = {
            method: observed.metrics.counter("oracle.calls", method=method).value
            for method in ("is_satisfactory", "is_satisfactory_many")
        }
        assert calls == {"is_satisfactory": 0, "is_satisfactory_many": len(orderings)}
        assert recorder.span_names() == ("oracle.is_satisfactory_many",)

    def test_shared_oracle_instance_in_composite_batches_like_the_loop(self):
        """A composite that reaches one instance twice batches through its own
        per-row short-circuit: the batch route is stateless."""
        dataset = _compas(20, seed=4)
        leaf = InstrumentedOracle(
            ProportionalOracle.at_most_share_plus_slack(
                dataset, "race", "African-American", k=0.3, slack=0.10
            )
        )
        orderings = _random_orderings(dataset, 25, seed=4)
        for shared in (AndOracle([leaf, leaf]), OrOracle([leaf, AndOracle([leaf])])):
            _assert_batch_is_the_loop(shared, leaf, orderings, dataset)
        # The batch entry point asks the shared leaf in batches, never row by row.
        scalar_calls = leaf.metrics.counter("oracle.calls", method="is_satisfactory")
        asked = scalar_calls.value
        evaluate_many(AndOracle([leaf, leaf]), orderings, dataset)
        assert scalar_calls.value == asked

    @pytest.mark.parametrize(
        "stricter_class", [StricterOracle, MixinStricterOracle], ids=["subclass", "mixin"]
    )
    def test_subclass_overriding_is_satisfactory_gets_the_loop(self, stricter_class):
        """A scalar-only override, in the class or in a plain mixin ahead of the
        kernel's class, is judged by its own verdict on every batch route,
        never by the parent's kernel."""
        stricter = stricter_class("race", "African-American", k=10, max_fraction=0.7)
        assert stricter_class.is_satisfactory_many is FairnessOracle.is_satisfactory_many
        dataset = _compas(20, seed=6)
        orderings = _random_orderings(dataset, 10, seed=0)
        expected = [stricter.is_satisfactory(row, dataset) for row in orderings]
        # The parent's kernel would judge these rows differently.
        parent_kernel = ProportionalOracle.is_satisfactory_many
        assert parent_kernel(stricter, orderings, dataset).tolist() != expected
        assert stricter.is_satisfactory_many(orderings, dataset).tolist() == expected
        assert evaluate_many(stricter, orderings, dataset).tolist() == expected
        functions = [
            LinearScoringFunction((np.cos(angle), np.sin(angle)))
            for angle in np.linspace(0.0, np.pi / 2.0, 12)
        ]
        assert evaluate_functions_many(stricter, dataset, functions).tolist() == [
            stricter.evaluate_function(function, dataset) for function in functions
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

    @pytest.mark.parametrize("layout", sorted(WEIGHT_LAYOUTS))
    @pytest.mark.parametrize("case", sorted(ORDERING_CASES))
    def test_tied_and_untied_rows_match_the_stable_reference(self, case, layout):
        scores, weight_matrix, every_row_ties = ORDERING_CASES[case]
        dataset = _dataset_of(scores)
        tied = _tied_rows(dataset, weight_matrix)
        assert tied.any() and bool(tied.all()) == every_row_ties
        _assert_orders_like_the_references(dataset, WEIGHT_LAYOUTS[layout](weight_matrix))

    @pytest.mark.parametrize("weights", [(1.0, 1.0), (0.25, 1.0)], ids=["tie", "no-tie"])
    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_datasets_and_batches(self, n, q, weights):
        dataset = _dataset_of(np.array([[1.0, 2.0], [2.0, 1.0]])[:n])
        weight_matrix = np.array([weights] * q).reshape(q, 2)
        orderings = _assert_orders_like_the_references(dataset, weight_matrix)
        assert orderings.shape == (q, n)

    def test_signed_zero_scores_are_re_sorted_stably(self, monkeypatch):
        """A ``-0.0`` score beside a ``0.0`` one ties, so its row takes the stable route.

        The stacked matmul never returns ``-0.0`` (it accumulates from
        ``+0.0``), so the scores are injected: distinct values with one
        ``0.0`` and one ``-0.0`` per row but the first, whose bits all differ,
        and which the unstable sort alone puts out of index order.
        """
        rng = np.random.default_rng(21)
        crafted = rng.random((8, 300))
        for row in crafted[1:]:
            row[rng.choice(300, size=2, replace=False)] = (0.0, -0.0)
        dataset = _dataset_of(np.ones((300, 2)))
        weight_matrix = np.array([[float(row), 1.0] for row in range(8)])
        monkeypatch.setattr(
            scoring,
            "_negated_scores",
            lambda _dataset, weights: -crafted[weights[:, 0].astype(int)],
        )
        expected = np.argsort(-crafted, axis=1, kind="stable")
        assert not np.array_equal(np.argsort(-crafted, axis=1), expected)
        assert np.array_equal(order_many(dataset, weight_matrix), expected)

    @pytest.mark.parametrize("case", sorted(ORDERING_CASES))
    def test_only_duplicate_free_datasets_search_for_ties(self, case, monkeypatch):
        """A dataset with equal score vectors ties every row, so it is ordered
        stably at once; elsewhere only the tied rows are scored a second time."""
        scores, weight_matrix, every_row_ties = ORDERING_CASES[case]
        dataset = _dataset_of(scores)
        assert dataset.has_duplicate_scores == every_row_ties
        scored = []
        kernel = scoring._negated_scores

        def counting(dataset, weights):
            scored.append(len(weights))
            return kernel(dataset, weights)

        monkeypatch.setattr(scoring, "_negated_scores", counting)
        orderings = order_many(dataset, weight_matrix)
        assert np.array_equal(orderings, order_many_stable(dataset, weight_matrix))
        tied = _tied_rows(dataset, weight_matrix)
        expected = [len(weight_matrix)] if every_row_ties else [len(weight_matrix), tied.sum()]
        assert scored == expected

    @pytest.mark.perf_smoke
    def test_ordering_smoke(self):
        """An untied, a tied and an every-row-tied batch against the stable
        reference, and to_weights_many against the scalar loop: the
        check_all.py ordering gate."""
        scores, weight_matrix, _ = ORDERING_CASES["integer-grid"]
        dataset = _dataset_of(scores)
        tied = _tied_rows(dataset, weight_matrix)
        assert tied.any() and not tied.all()
        for batch in (weight_matrix[tied], weight_matrix[~tied]):
            _assert_orders_like_the_references(dataset, batch)
        duplicates, weight_matrix, _ = ORDERING_CASES["duplicate-rows"]
        assert _dataset_of(duplicates).has_duplicate_scores
        _assert_orders_like_the_references(_dataset_of(duplicates), weight_matrix)
        angles = np.random.default_rng(22).uniform(0.0, HALF_PI, size=(64, 2))
        angles[::5] = (0.0, HALF_PI)
        looped = np.stack([to_weights_loop(row, radius=1.7) for row in angles])
        assert to_weights_many(angles, radius=1.7).tobytes() == looped.tobytes()


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


class _ServedStably:
    """An engine whose batches are served inside ``stable_orderings()``."""

    def __init__(self, engine):
        self.engine = engine
        self.oracle = engine.oracle

    def suggest_many(self, weight_grid):
        with stable_orderings():
            return self.engine.suggest_many(weight_grid)

    def to_payload(self):
        return self.engine.to_payload()


#: The engines whose batches go through ``order_many``.
STABLE_ORDERING_CONFIGS = {
    "approximate-uniform": ApproxConfig(n_cells=25, max_hyperplanes=20),
    "approximate-angle": ApproxConfig(n_cells=25, max_hyperplanes=20, partition="angle"),
    "exact": ExactConfig(max_hyperplanes=20),
}


def _duplicated(dataset: Dataset) -> Dataset:
    """Every row twice; the copies take other items' types, so the order of a
    tied pair can change a group count."""
    return Dataset(
        scores=np.vstack([dataset.scores, dataset.scores]),
        scoring_attributes=dataset.scoring_attributes,
        types={
            attribute: np.concatenate([column, np.roll(column, 1)])
            for attribute, column in dataset.types.items()
        },
    )


def _on_integer_grid(dataset: Dataset, levels: int = 8) -> Dataset:
    """Scores floored onto ``levels`` steps, the first item at each point kept:
    no two items share a score vector, yet coarse weights tie many pairs."""
    grid = np.floor(dataset.scores * levels)
    keep = np.sort(np.unique(grid, axis=0, return_index=True)[1])
    return Dataset(
        scores=grid[keep],
        scoring_attributes=dataset.scoring_attributes,
        types={attribute: np.asarray(column)[keep] for attribute, column in dataset.types.items()},
    )


def _differential_case(name: str) -> tuple[Dataset, np.ndarray]:
    """``(dataset, weight grid)``: no tie, every batch row tied by duplicate
    items (the stable argsort at once), or some rows tied (the tie re-sort)."""
    grid = make_weight_grid(40, 3, seed=23)
    if name == "compas":
        return _compas(60, seed=19, d=3), grid
    if name == "duplicate-rows":
        return _duplicated(_compas(60, seed=19, d=3)), grid
    # Quarter-step weights score grid points exactly, so equal sums tie.
    grid[::2] = np.ceil(grid[::2] * 4) / 4
    return _on_integer_grid(_compas(200, seed=19, d=3)), grid


class TestStableOrderingsDifferential:
    """The kernel against the stable reference at the engine seam: same answers,
    oracle calls, payload bytes and §5.4 validation report."""

    @pytest.mark.perf_smoke
    @pytest.mark.parametrize("data", ["compas", "duplicate-rows", "integer-grid"])
    @pytest.mark.parametrize("case", sorted(STABLE_ORDERING_CONFIGS))
    def test_stable_orderings_change_no_answer(self, case, data):
        dataset, grid = _differential_case(data)
        tied = _tied_rows(dataset, grid)
        assert dataset.has_duplicate_scores == (data == "duplicate-rows")
        assert (tied.any(), tied.all()) == {
            "compas": (False, False),
            "duplicate-rows": (True, True),
            "integer-grid": (True, False),
        }[data]
        fm1 = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.05
        )
        config = STABLE_ORDERING_CONFIGS[case]
        engine = create_engine(dataset, CountingOracle(fm1), config).preprocess()
        with stable_orderings():
            reference = create_engine(dataset, CountingOracle(fm1), config).preprocess()
        assert engine.oracle.calls == reference.oracle.calls
        entries = assert_engines_equivalent(engine, _ServedStably(reference), grid)
        assert {entry.satisfactory for entry in entries} == {True, False}
        if isinstance(config, ApproxConfig):
            report = validate_index_on_dataset(engine.index, dataset, fm1)
            with stable_orderings():
                assert validate_index_on_dataset(reference.index, dataset, fm1) == report
