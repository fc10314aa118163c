"""Equivalence tests for the vectorized + incremental sweep hot path.

Three reference paths anchor these tests:

* the scalar per-pair exchange construction of ``tests/reference/``
  (``build_exchange_angles_2d_reference`` / ``build_exchange_hyperplanes_reference``),
* black-box per-sector oracle evaluation — the route a
  :class:`~repro.fairness.oracle.CallableOracle` takes, so wrapping an
  oracle's ``is_satisfactory`` in one forces it,
* the per-swap ``begin``/``apply_swap``/``verdict`` loop, which the array
  sweep kernel must reproduce wherever it runs.

The vectorized kernels and the incremental-oracle protocol must reproduce
them *exactly*: same angles (bit-for-bit), same pair labels, same
satisfactory intervals, and the same oracle-call accounting.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ground_truth import wrong_sectors_2d
from reference.exchanges import (
    build_exchange_angles_2d_reference,
    build_exchange_hyperplanes_reference,
    exchange_rows,
)

from repro.core.two_dim import _ANGLE_GROUP_TOLERANCE, TwoDRaySweep, _group_starts
from repro.data.dataset import Dataset
from repro.data.dominance import (
    dominance_matrix,
    exchange_pair_indices,
    non_dominated_pairs,
)
from repro.data.synthetic import make_compas_like
from repro.fairness.composite import AndOracle, NotOracle, OrOracle
from repro.fairness.batched import evaluate_many
from repro.fairness.incremental import as_bulk_sweep, as_incremental
from repro.fairness.multi_attribute import MultiAttributeOracle
from repro.fairness.oracle import CallableOracle, CountingOracle, FairnessOracle
from repro.fairness.prefix import MinimumAtEveryPrefixOracle, PrefixProportionalOracle
from repro.fairness.proportional import ProportionalOracle, TopKGroupBoundOracle
from repro.geometry.dual import exchange_arrays_2d, has_exchange, hyperplanes_for_dataset
from repro.obs.instrument import InstrumentedOracle
from repro.obs.trace import TraceRecorder, activated


def _compas_2d(n: int, seed: int) -> Dataset:
    return make_compas_like(n=n, seed=seed).project(
        ["c_days_from_compas", "juv_other_count"]
    )


def _oracle_zoo(dataset: Dataset) -> list:
    """One oracle of every incremental-capable flavour, on the given dataset."""
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
    return [
        fm1,
        both_sides,
        bound,
        prefix,
        fair,
        fm2,
        AndOracle([fm1, bound]),
        OrOracle([both_sides, fair]),
        NotOracle(prefix),
    ]


class TestVectorizedKernels:
    @pytest.mark.perf_smoke
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exchange_angles_match_reference_exactly(self, seed):
        dataset = _compas_2d(60, seed)
        assert exchange_rows(exchange_arrays_2d(dataset)) == exchange_rows(
            build_exchange_angles_2d_reference(dataset)
        )

    def test_exchange_angles_with_duplicates_and_dominated_rows(self):
        scores = np.array(
            [
                [1.0, 2.0],
                [1.0, 2.0],  # exact duplicate of item 0
                [2.0, 1.0],
                [0.5, 0.5],  # dominated by everything
                [1.0 + 5e-9, 2.0],  # allclose-duplicate of item 0
            ]
        )
        dataset = Dataset(scores=scores, scoring_attributes=["x", "y"])
        vectorized = exchange_rows(exchange_arrays_2d(dataset))
        assert vectorized == exchange_rows(build_exchange_angles_2d_reference(dataset))
        labels = {(i, j) for _, i, j in vectorized}
        assert (0, 1) not in labels
        assert (0, 4) not in labels
        assert (0, 2) in labels

    @pytest.mark.parametrize("seed", [3, 4])
    def test_exchange_hyperplanes_match_reference_exactly(self, seed):
        dataset = make_compas_like(n=30, seed=seed).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        vectorized = hyperplanes_for_dataset(dataset)
        reference = build_exchange_hyperplanes_reference(dataset)
        assert [(p.label, p.coefficients) for p in vectorized] == [
            (p.label, p.coefficients) for p in reference
        ]

    def test_exchange_hyperplanes_subset_match_reference(self, paper_3d_dataset):
        indices = np.array([2, 0, 3])
        vectorized = hyperplanes_for_dataset(paper_3d_dataset, item_indices=indices)
        reference = build_exchange_hyperplanes_reference(
            paper_3d_dataset, item_indices=indices
        )
        assert [(p.label, p.coefficients) for p in vectorized] == [
            (p.label, p.coefficients) for p in reference
        ]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_non_dominated_pairs_matches_nested_loop(self, seed):
        scores = make_compas_like(n=40, seed=seed).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        ).scores
        matrix = dominance_matrix(scores)
        n = matrix.shape[0]
        reference = [
            (i, j)
            for i in range(n - 1)
            for j in range(i + 1, n)
            if not matrix[i, j] and not matrix[j, i]
        ]
        assert non_dominated_pairs(scores) == reference

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_exchange_pair_indices_agrees_with_has_exchange(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random((12, 3))
        # Inject duplicates and dominated rows to exercise every mask.
        scores[3] = scores[0]
        scores[5] = scores[1] + 0.5
        pairs = {tuple(pair) for pair in exchange_pair_indices(scores).tolist()}
        for i in range(scores.shape[0] - 1):
            for j in range(i + 1, scores.shape[0]):
                assert ((i, j) in pairs) == has_exchange(scores[i], scores[j])


class TestIncrementalProtocol:
    @pytest.mark.parametrize("oracle_index", range(9))
    def test_verdicts_track_is_satisfactory_under_random_swaps(self, oracle_index):
        dataset = _compas_2d(50, seed=11)
        oracle = _oracle_zoo(dataset)[oracle_index]
        incremental = as_incremental(oracle)
        assert incremental is not None

        rng = np.random.default_rng(oracle_index)
        ordering = rng.permutation(dataset.n_items)
        incremental.begin(ordering.copy(), dataset)
        assert incremental.verdict() == oracle.is_satisfactory(ordering, dataset)
        for _ in range(120):
            pos_i, pos_j = rng.choice(dataset.n_items, size=2, replace=False)
            ordering[pos_i], ordering[pos_j] = ordering[pos_j], ordering[pos_i]
            incremental.apply_swap(int(pos_i), int(pos_j))
            assert incremental.verdict() == oracle.is_satisfactory(ordering, dataset)

    def test_black_box_oracles_are_not_incremental(self):
        callable_oracle = CallableOracle(lambda ordering, dataset: True, "always")
        assert as_incremental(callable_oracle) is None
        # A counting wrapper is only as capable as what it wraps.
        assert as_incremental(CountingOracle(callable_oracle)) is None
        dataset = _compas_2d(20, seed=0)
        fm1 = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
        assert as_incremental(CountingOracle(fm1)) is not None
        assert as_incremental(AndOracle([fm1, callable_oracle])) is None

    def test_shared_oracle_instance_in_composite_falls_back_to_black_box(self):
        """A composite referencing the same oracle twice must not run incrementally.

        Composites forward every swap to each child reference; a shared
        instance would absorb each transposition twice (self-cancelling) and
        silently corrupt its counter state.
        """
        dataset = _compas_2d(40, seed=4)
        leaf = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
        shared = AndOracle([leaf, leaf])
        assert as_incremental(shared) is None
        nested = OrOracle([leaf, AndOracle([leaf])])
        assert as_incremental(nested) is None
        black_box = TwoDRaySweep(dataset, CallableOracle(shared.is_satisfactory)).run()
        swept = TwoDRaySweep(dataset, shared).run()
        assert [(iv.start, iv.end) for iv in swept.intervals] == [
            (iv.start, iv.end) for iv in black_box.intervals
        ]

    def test_subclass_overriding_is_satisfactory_falls_back_to_black_box(self):
        """Overriding is_satisfactory without verdict must disable the protocol.

        Otherwise the sweep would use the parent's incremental verdict and
        silently ignore the override.
        """

        class StricterOracle(ProportionalOracle):
            def is_satisfactory(self, ordering, dataset) -> bool:
                return super().is_satisfactory(ordering, dataset) and int(ordering[0]) % 2 == 0

        dataset = _compas_2d(30, seed=2)
        stricter = StricterOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
        assert as_incremental(stricter) is None
        reference = TwoDRaySweep(
            dataset,
            CallableOracle(stricter.is_satisfactory),
            exchange_builder=build_exchange_angles_2d_reference,
        ).run()
        swept = TwoDRaySweep(dataset, stricter).run()
        assert [(iv.start, iv.end) for iv in swept.intervals] == [
            (iv.start, iv.end) for iv in reference.intervals
        ]

    def test_counting_oracle_counts_verdicts(self):
        dataset = _compas_2d(20, seed=1)
        fm1 = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
        counting = CountingOracle(fm1)
        incremental = as_incremental(counting)
        incremental.begin(np.arange(dataset.n_items), dataset)
        assert counting.calls == 0
        incremental.verdict()
        incremental.apply_swap(0, 1)
        incremental.verdict()
        assert counting.calls == 2


class TestSweepEquivalence:
    @pytest.mark.perf_smoke
    @pytest.mark.parametrize("oracle_index", range(9))
    def test_incremental_sweep_matches_black_box_sweep(self, oracle_index):
        dataset = _compas_2d(40, seed=oracle_index)
        black_box = CountingOracle(_oracle_zoo(dataset)[oracle_index])
        incremental = CountingOracle(_oracle_zoo(dataset)[oracle_index])

        reference = TwoDRaySweep(
            dataset,
            CallableOracle(black_box.is_satisfactory),
            exchange_builder=build_exchange_angles_2d_reference,
        ).run()
        fast = TwoDRaySweep(dataset, incremental).run()

        assert [(iv.start, iv.end) for iv in fast.intervals] == [
            (iv.start, iv.end) for iv in reference.intervals
        ]
        assert fast.n_exchanges == reference.n_exchanges
        assert fast.oracle_calls == reference.oracle_calls
        assert incremental.calls == black_box.calls

    @pytest.mark.parametrize("seed", [0, 7])
    def test_sweep_with_tied_exchange_angles(self, seed):
        """Coincident exchange angles batch several (non-adjacent) swaps per event."""
        rng = np.random.default_rng(seed)
        base = rng.integers(1, 6, size=(14, 2)).astype(float)
        dataset = Dataset(
            scores=base,
            scoring_attributes=["x", "y"],
            types={"group": np.array(["a", "b"] * 7)},
        )
        oracle_factory = lambda: CountingOracle(
            TopKGroupBoundOracle("group", "a", k=5, max_count=3)
        )
        black_box, incremental = oracle_factory(), oracle_factory()
        reference = TwoDRaySweep(dataset, CallableOracle(black_box.is_satisfactory)).run()
        fast = TwoDRaySweep(dataset, incremental).run()
        assert [(iv.start, iv.end) for iv in fast.intervals] == [
            (iv.start, iv.end) for iv in reference.intervals
        ]
        assert incremental.calls == black_box.calls


class TestIndexStartCache:
    def test_interval_starts_refresh_on_assignment(self):
        from repro.core.two_dim import AngularInterval, TwoDIndex

        index = TwoDIndex(intervals=[AngularInterval(0.1, 0.2)], oracle_calls=1)
        assert index.interval_starts.tolist() == [0.1]
        index.intervals = [AngularInterval(0.3, 0.4), AngularInterval(0.8, 0.9)]
        assert index.interval_starts.tolist() == [0.3, 0.8]
        assert index.is_satisfactory_angle(0.85)
        assert not index.is_satisfactory_angle(0.5)


# --------------------------------------------------------------------- #
# the array sweep kernel against the per-swap loop and the black box
# --------------------------------------------------------------------- #
#: Indices of the ``_oracle_zoo`` oracles built from top-k group counters
#: only (FM1, both-sided FM1, the count bound, FM2, and their AND).
TOP_K_FAMILY = (0, 1, 2, 5, 6)


class _PerSwapOnly(FairnessOracle):
    """Forwards the per-swap protocol but not ``sweep_verdicts``: the sweep must loop."""

    def __init__(self, inner: FairnessOracle) -> None:
        self.inner = inner

    def is_satisfactory(self, ordering, dataset) -> bool:
        return self.inner.is_satisfactory(ordering, dataset)

    def incremental_capable(self) -> bool:
        return as_incremental(self.inner) is not None

    def begin(self, ordering, dataset) -> None:
        self.inner.begin(ordering, dataset)

    def apply_swap(self, pos_i: int, pos_j: int) -> None:
        self.inner.apply_swap(pos_i, pos_j)

    def verdict(self) -> bool:
        return self.inner.verdict()


def _traced_sweep(dataset: Dataset, oracle) -> tuple[tuple, dict]:
    """Sweep under a recorder: a bit-level fingerprint and the sweep span's attributes."""
    recorder = TraceRecorder()
    with activated(recorder):
        index = TwoDRaySweep(dataset, oracle).run()
    (span,) = [span for span in recorder.spans if span.name == "preprocess.sweep"]
    fingerprint = (
        [(interval.start.hex(), interval.end.hex()) for interval in index.intervals],
        index.n_exchanges,
        index.oracle_calls,
    )
    return fingerprint, dict(span.attributes)


def _assert_routes_agree(dataset: Dataset, make_oracle) -> dict:
    """Default route ≡ per-swap loop ≡ black box; returns the default sweep span's attributes."""
    default, per_swap, black_box = (CountingOracle(make_oracle()) for _ in range(3))
    fast, attributes = _traced_sweep(dataset, default)
    looped, looped_attributes = _traced_sweep(dataset, _PerSwapOnly(per_swap))
    reference, reference_attributes = _traced_sweep(
        dataset, CallableOracle(black_box.is_satisfactory)
    )
    assert (looped_attributes["kernel"], looped_attributes["incremental"]) == ("loop", True)
    assert (reference_attributes["kernel"], reference_attributes["incremental"]) == (
        "loop",
        False,
    )
    assert fast == looped == reference
    assert default.calls == per_swap.calls == black_box.calls == reference[2]
    return attributes


def _two_group_dataset(scores, types=None) -> Dataset:
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[0]
    if types is None:
        types = np.array(["a", "b"] * n)[:n]
    return Dataset(scores=scores, scoring_attributes=["x", "y"], types={"group": types})


def _degenerate_oracles(dataset: Dataset) -> list:
    """A top-k oracle (array kernel candidate) and a prefix oracle (always the loop)."""
    return [
        ProportionalOracle("group", "a", k=0.5, min_fraction=0.3, max_fraction=0.6),
        MinimumAtEveryPrefixOracle("group", "a", k=0.5, target_fraction=0.3),
    ]


class TestArraySweepKernel:
    @pytest.mark.perf_smoke
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("oracle_index", range(9))
    def test_routes_agree_on_every_zoo_oracle(self, oracle_index, seed):
        """Three routes agree; the top-k family takes the array kernel, the rest the loop."""
        dataset = _compas_2d(40, seed)
        attributes = _assert_routes_agree(
            dataset, lambda: _oracle_zoo(dataset)[oracle_index]
        )
        expected = "array" if oracle_index in TOP_K_FAMILY else "loop"
        assert (attributes["kernel"], attributes["incremental"]) == (expected, True)

    @pytest.mark.perf_smoke
    def test_sweep_smoke(self):
        """The check_all.py sweep gate: one FM1 sweep three ways, one tied sweep vs brute force."""
        dataset = _compas_2d(60, seed=5)
        attributes = _assert_routes_agree(dataset, lambda: _oracle_zoo(dataset)[0])
        assert attributes["kernel"] == "array"
        tied = _two_group_dataset(np.random.default_rng(4).integers(0, 4, size=(30, 2)))
        attributes = _assert_routes_agree(tied, lambda: _degenerate_oracles(tied)[0])
        assert attributes["kernel"] == "array"
        oracle = _degenerate_oracles(tied)[0]
        assert wrong_sectors_2d(TwoDRaySweep(tied, oracle).run(), tied, oracle) == []

    def test_instrumented_wrappers_count_the_loop_totals(self):
        """Verdicts and swaps of nested instrumented wrappers match the per-swap loop."""
        dataset = _compas_2d(80, seed=6)

        def instrumented_and():
            fm1, _, bound = _oracle_zoo(dataset)[:3]
            children = [InstrumentedOracle(fm1), InstrumentedOracle(bound)]
            return InstrumentedOracle(AndOracle(children)), children

        def totals(outer, children):
            return [
                (wrapper.calls, wrapper.metrics.counter_total("oracle.swaps"))
                for wrapper in (outer, *children)
            ]

        fast, fast_children = instrumented_and()
        looped, looped_children = instrumented_and()
        fast_print, attributes = _traced_sweep(dataset, fast)
        looped_print, _ = _traced_sweep(dataset, _PerSwapOnly(looped))
        assert attributes["kernel"] == "array"
        assert fast_print == looped_print
        assert totals(fast, fast_children) == totals(looped, looped_children)
        # The second child only judges the sectors the first one accepted.
        assert fast_children[1].calls < fast_children[0].calls == fast_print[2]

    def test_subclass_overriding_verdict_takes_the_loop(self):
        """A subclass overriding the per-swap protocol below sweep_verdicts gets the loop."""

        class ObservedOracle(InstrumentedOracle):
            def verdict(self) -> bool:
                return super().verdict()

        dataset = _compas_2d(40, seed=1)
        observed = ObservedOracle(_oracle_zoo(dataset)[0])
        _, attributes = _traced_sweep(dataset, observed)
        assert (attributes["kernel"], attributes["incremental"]) == ("loop", True)
        plain = InstrumentedOracle(_oracle_zoo(dataset)[0])
        _, attributes = _traced_sweep(dataset, plain)
        assert attributes["kernel"] == "array"
        assert observed.calls == plain.calls
        assert observed.metrics.counter_total("oracle.swaps") == plain.metrics.counter_total(
            "oracle.swaps"
        )

    @pytest.mark.parametrize(
        "scores",
        [
            [[1, 2], [1, 2], [0.5, 3], [2, 1], [0.8, 2.5]],
            [[1, 2], [1 + 5e-9, 2 - 5e-9], [0.5, 3], [2, 1]],
        ],
        ids=["exact-duplicates", "allclose-duplicates"],
    )
    def test_duplicate_rows_take_the_array_kernel(self, scores):
        """A third item crossing duplicate rows swaps past them one at a time."""
        dataset = _two_group_dataset(scores)
        for oracle_index in range(2):
            attributes = _assert_routes_agree(
                dataset, lambda: _degenerate_oracles(dataset)[oracle_index]
            )
            assert attributes["kernel"] == ("array" if oracle_index == 0 else "loop")

    @pytest.mark.parametrize(
        "scores",
        [
            # Exactly equal angles: the tied swaps run as a bubble sort.
            [[1, 4], [2, 3], [3, 2], [4, 1], [0.5, 0.5], [2.5, 3.5]],
            [[3, 2], [1, 4], [4, 1], [2, 3]],
            # Angles equal up to rounding: one group, angle order not index order.
            np.column_stack((np.linspace(0.1, 0.9, 9), 0.9 - np.linspace(0.0, 0.8, 9))),
        ],
        ids=["collinear-exact", "collinear-shuffled", "collinear-rounded"],
    )
    def test_collinear_groups_with_several_pairs(self, scores):
        dataset = _two_group_dataset(scores)
        for oracle_index in range(2):
            attributes = _assert_routes_agree(
                dataset, lambda: _degenerate_oracles(dataset)[oracle_index]
            )
            n_exchanges = exchange_arrays_2d(dataset)[0].size
            assert attributes["n_sectors"] < n_exchanges + 1

    @pytest.mark.parametrize("seed", [0, 7])
    def test_tied_integer_grid(self, seed):
        rng = np.random.default_rng(seed)
        dataset = _two_group_dataset(rng.integers(1, 6, size=(14, 2)).astype(float))
        attributes = _assert_routes_agree(
            dataset, lambda: TopKGroupBoundOracle("group", "a", k=5, max_count=3)
        )
        assert attributes["kernel"] == "array"

    @pytest.mark.parametrize("n_items", [1, 2])
    def test_tiny_datasets(self, n_items):
        dataset = _two_group_dataset([[0.3, 0.4], [0.4, 0.3]][:n_items])
        for oracle_index in range(2):
            attributes = _assert_routes_agree(
                dataset, lambda: _degenerate_oracles(dataset)[oracle_index]
            )
            assert attributes["n_sectors"] == n_items

    def test_single_group_dataset(self):
        rng = np.random.default_rng(4)
        dataset = _two_group_dataset(rng.random((30, 2)), np.array(["a"] * 30))
        for oracle_index in range(2):
            _assert_routes_agree(dataset, lambda: _degenerate_oracles(dataset)[oracle_index])


# --------------------------------------------------------------------- #
# oracles that share one body: sibling front doors judge alike on every
# route, and the counting wrappers keep their totals and descriptions
# --------------------------------------------------------------------- #
#: Sectors at which the whole-sweep route is judged (after that many events).
JUDGE_AT = np.array([0, 3, 10, 20, 33, 40])


def _route_inputs(dataset: Dataset, seed: int) -> tuple:
    """30 orderings, 30 arbitrary swaps and 40 adjacent sweep events.

    The events swap positions 8..14, so they often cross the rank-12
    boundary of the top-k oracles here.
    """
    rng = np.random.default_rng(seed)
    orderings = np.stack([rng.permutation(dataset.n_items) for _ in range(30)])
    swaps = [tuple(rng.choice(dataset.n_items, size=2, replace=False)) for _ in range(30)]
    return orderings, swaps, rng.integers(8, 14, size=JUDGE_AT[-1])


def _scalar_route(oracle, dataset: Dataset, inputs: tuple) -> list:
    return [bool(oracle.is_satisfactory(row, dataset)) for row in inputs[0]]


def _batched_route(oracle, dataset: Dataset, inputs: tuple) -> list:
    return evaluate_many(oracle, inputs[0], dataset).tolist()


def _per_swap_route(oracle, dataset: Dataset, inputs: tuple) -> list:
    orderings, swaps, _ = inputs
    incremental = as_incremental(oracle)
    incremental.begin(orderings[0].copy(), dataset)
    verdicts = [bool(incremental.verdict())]
    for pos_i, pos_j in swaps:
        incremental.apply_swap(int(pos_i), int(pos_j))
        verdicts.append(bool(incremental.verdict()))
    return verdicts


def _whole_sweep_route(oracle, dataset: Dataset, inputs: tuple) -> list | None:
    """``sweep_verdicts`` over the adjacent events; ``None`` when the oracle has no bulk route."""
    orderings, _, low = inputs
    bulk = as_bulk_sweep(oracle)
    if bulk is None:
        return None
    ordering = orderings[0].copy()
    leaving, entering = np.empty_like(low), np.empty_like(low)
    for event, position in enumerate(low):
        leaving[event], entering[event] = ordering[position], ordering[position + 1]
        ordering[[position, position + 1]] = ordering[[position + 1, position]]
    bulk.begin(orderings[0].copy(), dataset)
    return np.asarray(bulk.sweep_verdicts(low, leaving, entering, JUDGE_AT)).tolist()


ROUTES = {
    "scalar": _scalar_route,
    "batched": _batched_route,
    "per_swap": _per_swap_route,
    "whole_sweep": _whole_sweep_route,
}


def _fm2_children(dataset: Dataset) -> list:
    return [
        ProportionalOracle.at_most_share_plus_slack(dataset, "sex", "male", k=0.3, slack=0.02),
        ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.02
        ),
    ]


#: Pairs of front doors to one body: each pair must judge alike.  At k = 12
#: the fractions 25 % and 50 % round to the counts 3 and 6; the FM2 pair's
#: children are counted, so their short-circuited totals are compared too.
SIBLINGS = {
    "fm1-vs-count-bound": (
        lambda dataset: ProportionalOracle(
            "race", "African-American", k=12, min_fraction=0.25, max_fraction=0.5
        ),
        lambda dataset: TopKGroupBoundOracle(
            "race", "African-American", k=12, min_count=3, max_count=6
        ),
    ),
    "fair-vs-prefix": (
        lambda dataset: MinimumAtEveryPrefixOracle("sex", "male", k=12, target_fraction=0.3),
        lambda dataset: PrefixProportionalOracle("sex", "male", k=12, min_fraction=0.3),
    ),
    "fm2-vs-conjunction": (
        lambda dataset: MultiAttributeOracle(
            [CountingOracle(child) for child in _fm2_children(dataset)], k=0.3
        ),
        lambda dataset: AndOracle([CountingOracle(child) for child in _fm2_children(dataset)]),
    ),
}

#: ``describe()`` of every ``_oracle_zoo`` oracle, in zoo order.
ZOO_DESCRIPTIONS = (
    "FM1(race=African-American <= 68% of top-0.3)",
    "FM1(race=African-American >= 20% and <= 70% of top-0.4)",
    "TopKBound(sex=male >= 2 and <= 8 in top-10)",
    "PrefixFM1(race=African-American <= 80% of every prefix of top-0.4 of length >= 3)",
    "FA*IR(sex=male >= ceil(30% · i) in every prefix i of top-12)",
    "FM2[FM1(sex=male <= 85% of top-0.3) AND FM1(race=African-American <= 68% of top-0.3)]",
    "FM1(race=African-American <= 68% of top-0.3) AND TopKBound(sex=male >= 2 and <= 8 in top-10)",
    "FM1(race=African-American >= 20% and <= 70% of top-0.4) OR "
    "FA*IR(sex=male >= ceil(30% · i) in every prefix i of top-12)",
    "NOT (PrefixFM1(race=African-American <= 80% of every prefix of top-0.4 of length >= 3))",
)

#: Per route, the call totals of a counted FM2 and of its two counted
#: children (the second child is asked only where the first accepts), then
#: each instrumented wrapper's ``oracle.calls``, ``oracle.swaps`` and
#: ``oracle.batches`` totals.
COUNTED_TOTALS = {
    "scalar": ([30, 30, 16], [[30, 0, 0], [30, 0, 0], [16, 0, 0]]),
    "batched": ([30, 30, 16], [[30, 0, 1], [30, 0, 1], [16, 0, 1]]),
    "per_swap": ([31, 31, 28], [[31, 30, 0], [31, 30, 0], [28, 30, 0]]),
    "whole_sweep": ([6, 6, 5], [[6, 40, 0], [6, 40, 0], [5, 40, 0]]),
}


class TestSharedBodies:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("pair", sorted(SIBLINGS))
    def test_siblings_agree_on_every_route(self, pair, seed):
        """Both front doors give the same verdicts, probes, sweeps and child totals,
        and each one's 2-D sweep routes agree with its black box."""
        dataset = _compas_2d(40, seed)
        inputs = _route_inputs(dataset, seed)

        def observed(make) -> dict:
            oracle = make(dataset)
            record = {
                name: route(oracle, dataset, inputs) for name, route in ROUTES.items()
            }
            record["probes"] = tuple(
                probe(oracle) is not None for probe in (as_incremental, as_bulk_sweep)
            )
            record["sweep"] = _traced_sweep(dataset, make(dataset))
            record["sweep_routes"] = _assert_routes_agree(dataset, lambda: make(dataset))
            record["child_calls"] = [
                child.calls for child in getattr(oracle, "children", [])
            ]
            return record

        first, second = (observed(make) for make in SIBLINGS[pair])
        assert first == second
        assert first["batched"] == first["scalar"]
        assert len(set(first["scalar"])) == 2

    def test_zoo_descriptions_are_unchanged(self):
        dataset = _compas_2d(40, seed=0)
        for oracle, expected in zip(_oracle_zoo(dataset), ZOO_DESCRIPTIONS, strict=True):
            assert oracle.describe() == expected
            assert CountingOracle(oracle).describe() == f"counting({expected})"
            assert InstrumentedOracle(oracle).describe() == f"instrumented({expected})"

    @pytest.mark.parametrize("route", sorted(COUNTED_TOTALS))
    @pytest.mark.parametrize("wrapper", [CountingOracle, InstrumentedOracle])
    def test_counters_keep_their_totals(self, wrapper, route):
        dataset = _compas_2d(40, seed=0)
        children = [wrapper(child) for child in _fm2_children(dataset)]
        outer = wrapper(MultiAttributeOracle(children, k=0.3))
        ROUTES[route](outer, dataset, _route_inputs(dataset, seed=0))
        calls, metrics = COUNTED_TOTALS[route]
        assert [wrapper.calls for wrapper in (outer, *children)] == calls
        if wrapper is InstrumentedOracle:
            names = ("oracle.calls", "oracle.swaps", "oracle.batches")
            assert [
                [wrapper.metrics.counter_total(name) for name in names]
                for wrapper in (outer, *children)
            ] == metrics


def _group_starts_reference(angles: np.ndarray) -> list[int]:
    """The sweep's original grouping loop: compare each angle to its group's first angle."""
    starts: list[int] = []
    group_first = None
    for position, angle in enumerate(angles.tolist()):
        if group_first is None or abs(angle - group_first) > _ANGLE_GROUP_TOLERANCE:
            starts.append(position)
            group_first = angle
    return starts


class TestGrouping:
    @pytest.mark.parametrize("seed", range(6))
    def test_group_starts_match_the_first_angle_loop(self, seed):
        """Near-tie chains wider than the tolerance split where the loop splits them."""
        rng = np.random.default_rng(seed)
        tolerance = _ANGLE_GROUP_TOLERANCE
        pieces = [np.sort(rng.uniform(0.0, 1.5, size=40))]
        for _ in range(8):
            # A chain of steps each within tolerance, spanning several tolerances.
            steps = rng.uniform(0.0, 1.2 * tolerance, size=int(rng.integers(2, 12)))
            pieces.append(rng.uniform(0.0, 1.5) + np.cumsum(steps))
        angles = np.sort(np.concatenate(pieces))
        angles[rng.integers(0, angles.size, size=5)] = angles[0]  # exact ties
        angles = np.sort(angles)
        assert _group_starts(angles).tolist() == _group_starts_reference(angles)

    def test_group_starts_of_empty_and_single_angle(self):
        assert _group_starts(np.empty(0)).tolist() == []
        assert _group_starts(np.array([0.5])).tolist() == [0]
        chain = 0.5 + np.arange(5) * 0.9 * _ANGLE_GROUP_TOLERANCE
        assert _group_starts(chain).tolist() == _group_starts_reference(chain) == [0, 2, 4]
