"""Unit and property tests for dominance checks and convex layers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.dominance import (
    dominance_matrix,
    dominates,
    exchange_pair_indices,
    exchange_pairs_for_block,
    exchange_pairs_touching,
    iter_exchange_pair_chunks,
    non_dominated_pairs,
    skyline_indices,
)
from repro.data.layers import convex_layers, topk_candidate_indices, upper_hull_indices
from repro.exceptions import DatasetError


class TestDominates:
    def test_strict_dominance(self):
        assert dominates([2.0, 3.0], [1.0, 3.0])

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates([1.0, 2.0], [1.0, 2.0])

    def test_incomparable_vectors(self):
        assert not dominates([2.0, 1.0], [1.0, 2.0])
        assert not dominates([1.0, 2.0], [2.0, 1.0])

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DatasetError):
            dominates([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(
        arrays(float, 3, elements=st.floats(0, 10, allow_nan=False)),
        arrays(float, 3, elements=st.floats(0, 10, allow_nan=False)),
    )
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry(self, first, second):
        assert not (dominates(first, second) and dominates(second, first))

    @given(arrays(float, 4, elements=st.floats(0, 10, allow_nan=False)))
    @settings(max_examples=40, deadline=None)
    def test_irreflexive(self, vector):
        assert not dominates(vector, vector)


class TestDominanceMatrix:
    def test_matches_pairwise_checks(self):
        rng = np.random.default_rng(0)
        scores = rng.random((8, 3))
        matrix = dominance_matrix(scores)
        for i in range(8):
            for j in range(8):
                assert matrix[i, j] == dominates(scores[i], scores[j])

    def test_rejects_1d_input(self):
        with pytest.raises(DatasetError):
            dominance_matrix(np.arange(4.0))


class TestSkyline:
    def test_skyline_of_chain(self):
        scores = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert list(skyline_indices(scores)) == [2]

    def test_skyline_of_antichain(self):
        scores = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        assert list(skyline_indices(scores)) == [0, 1, 2]

    def test_skyline_members_are_not_dominated(self):
        rng = np.random.default_rng(1)
        scores = rng.random((30, 3))
        skyline = set(skyline_indices(scores).tolist())
        for i in range(30):
            dominated = any(dominates(scores[j], scores[i]) for j in range(30) if j != i)
            assert (i in skyline) == (not dominated)


class TestNonDominatedPairs:
    def test_counts_match_matrix(self):
        rng = np.random.default_rng(2)
        scores = rng.random((12, 2))
        pairs = non_dominated_pairs(scores)
        expected = 0
        for i in range(11):
            for j in range(i + 1, 12):
                if not dominates(scores[i], scores[j]) and not dominates(scores[j], scores[i]):
                    expected += 1
        assert len(pairs) == expected

    def test_pairs_are_ordered_and_unique(self):
        rng = np.random.default_rng(3)
        scores = rng.random((10, 3))
        pairs = non_dominated_pairs(scores)
        assert all(i < j for i, j in pairs)
        assert len(set(pairs)) == len(pairs)


class TestIterExchangePairChunks:
    """Chunked pair enumeration must reproduce the one-shot kernel exactly."""

    @pytest.mark.perf_smoke
    @pytest.mark.parametrize("row_chunk_size", [1, 3, 7, 64, None])
    def test_concatenated_chunks_match_one_shot(self, row_chunk_size):
        rng = np.random.default_rng(13)
        scores = rng.uniform(0.0, 1.0, size=(57, 3))
        scores[5] = scores[20]  # exact duplicate
        scores[8] = scores[30] + 5e-9  # allclose duplicate
        scores[11] = scores[40] + 0.2  # dominated pair
        full = exchange_pair_indices(scores)
        chunks = list(iter_exchange_pair_chunks(scores, row_chunk_size=row_chunk_size))
        assert np.array_equal(np.concatenate(chunks), full)

    def test_each_chunk_covers_a_row_block(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0.0, 1.0, size=(20, 3))
        chunks = list(iter_exchange_pair_chunks(scores, row_chunk_size=6))
        assert len(chunks) == 4
        for block, chunk in enumerate(chunks):
            if chunk.shape[0]:
                assert np.all(chunk[:, 0] >= block * 6)
                assert np.all(chunk[:, 0] < (block + 1) * 6)
                assert np.all(chunk[:, 1] > chunk[:, 0])

    def test_rejects_bad_input(self):
        with pytest.raises(DatasetError):
            list(iter_exchange_pair_chunks(np.ones(5)))
        with pytest.raises(DatasetError):
            list(iter_exchange_pair_chunks(np.ones((4, 2)), row_chunk_size=0))


def _degenerate_tables() -> dict[str, np.ndarray]:
    """Score tables that exercise every branch of the exchange rule."""
    rng = np.random.default_rng(23)
    near = rng.uniform(0.0, 1.0, size=(12, 3))
    near[6:] = near[:6] * (1.0 + 5e-6)  # within rtol of the first six rows
    flat = rng.uniform(0.0, 1.0, size=(15, 3))
    flat[:, 1] = 0.5  # a zero-variance column
    # Second column below atol; rows on one level of the first are close.
    tiny = np.column_stack(
        (
            rng.choice([0.25, 0.5, 0.75], size=12) + rng.uniform(0.0, 2e-6, size=12),
            rng.uniform(0.0, 1e-8, size=12),
        )
    )
    return {
        "ties": rng.integers(0, 3, size=(30, 3)).astype(float),  # with duplicate rows
        "near_duplicates": near,
        "zero_variance": flat,
        "below_atol": tiny,
        # np.allclose but unequal rows, which still cross (at π/4).
        "allclose_duplicates": np.array([[1, 2], [1 + 5e-9, 2 - 5e-9], [0.5, 3], [2, 1]]),
        "one_row": np.array([[0.3, 0.7]]),
        "two_rows": np.array([[0.2, 0.9], [0.8, 0.1]]),
    }


DEGENERATE_TABLES = _degenerate_tables()


class TestExchangeRuleOnDegenerateTables:
    """Every pair enumerator applies footnote 4's rule, ties and near-ties included."""

    @pytest.mark.parametrize("name", sorted(DEGENERATE_TABLES))
    def test_pairs_follow_the_definition(self, name):
        scores = DEGENERATE_TABLES[name]
        n = scores.shape[0]
        expected = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if not dominates(scores[i], scores[j])
            and not dominates(scores[j], scores[i])
            and not np.array_equal(scores[i], scores[j])
        ]
        assert [tuple(pair) for pair in exchange_pair_indices(scores).tolist()] == expected

    @pytest.mark.parametrize("row_chunk_size", [1, 3, 7])
    @pytest.mark.parametrize("name", sorted(DEGENERATE_TABLES))
    def test_chunks_concatenate_to_the_full_enumeration(self, name, row_chunk_size):
        scores = DEGENERATE_TABLES[name]
        chunks = list(iter_exchange_pair_chunks(scores, row_chunk_size=row_chunk_size))
        assert np.array_equal(np.concatenate(chunks), exchange_pair_indices(scores))

    @pytest.mark.parametrize("name", sorted(DEGENERATE_TABLES))
    def test_touching_pairs_are_the_full_pairs_at_the_touched_rows(self, name):
        scores = DEGENERATE_TABLES[name]
        full = exchange_pair_indices(scores)
        n = scores.shape[0]
        rng = np.random.default_rng(7)
        for size in sorted({0, 1, n // 2, n}):
            touched = rng.choice(n, size=size, replace=False)
            at_touched = np.isin(full, touched).any(axis=1)
            assert np.array_equal(exchange_pairs_touching(scores, touched), full[at_touched])


    @pytest.mark.parametrize("name", sorted(DEGENERATE_TABLES))
    def test_block_pairs_are_the_full_pairs_of_their_rows(self, name):
        scores = DEGENERATE_TABLES[name]
        full = exchange_pair_indices(scores)
        n = scores.shape[0]
        for start, stop in sorted({(0, n), (0, n // 2), (n // 2, n), (n, n)}):
            in_block = (full[:, 0] >= start) & (full[:, 0] < stop)
            assert np.array_equal(exchange_pairs_for_block(scores, start, stop), full[in_block])

    def test_block_bounds_are_checked(self):
        scores = DEGENERATE_TABLES["two_rows"]
        for start, stop in ((-1, 1), (1, 0), (0, 3)):
            with pytest.raises(DatasetError, match="block bounds"):
                exchange_pairs_for_block(scores, start, stop)


class TestConvexLayers:
    def test_layers_partition_items(self):
        rng = np.random.default_rng(4)
        scores = rng.random((25, 2))
        layers = convex_layers(scores)
        combined = np.sort(np.concatenate(layers))
        assert np.array_equal(combined, np.arange(25))

    def test_first_layer_contains_best_single_attribute_items(self):
        rng = np.random.default_rng(5)
        scores = rng.random((40, 2))
        first_layer = set(convex_layers(scores, max_layers=1)[0].tolist())
        assert int(np.argmax(scores[:, 0])) in first_layer
        assert int(np.argmax(scores[:, 1])) in first_layer

    def test_max_layers_caps_output(self):
        rng = np.random.default_rng(6)
        scores = rng.random((30, 2))
        layers = convex_layers(scores, max_layers=2)
        assert len(layers) <= 2

    def test_upper_hull_is_subset_of_skyline_closure(self):
        rng = np.random.default_rng(7)
        scores = rng.random((30, 2))
        hull = set(upper_hull_indices(scores).tolist())
        skyline = set(skyline_indices(scores).tolist())
        assert hull.issubset(skyline | hull)

    def test_upper_hull_rejects_1d(self):
        with pytest.raises(DatasetError):
            upper_hull_indices(np.arange(5.0))


class TestTopkCandidates:
    def test_candidates_cover_every_linear_topk(self):
        """Any top-k of any non-negative weight vector must lie in the candidate set."""
        rng = np.random.default_rng(8)
        scores = rng.random((30, 2))
        k = 5
        candidates = set(topk_candidate_indices(scores, k).tolist())
        for _ in range(50):
            weights = np.abs(rng.normal(size=2)) + 1e-9
            order = np.argsort(-(scores @ weights), kind="stable")
            assert set(order[:k].tolist()).issubset(candidates)

    def test_k_larger_than_dataset_returns_everything(self):
        scores = np.random.default_rng(9).random((10, 3))
        assert len(topk_candidate_indices(scores, 50)) == 10

    def test_k_must_be_positive(self):
        with pytest.raises(DatasetError):
            topk_candidate_indices(np.ones((3, 2)), 0)
