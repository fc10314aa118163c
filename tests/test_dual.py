"""Tests for ordering exchanges: 2-D exchange angles and HYPERPOLAR.

The key invariant (which the whole paper rests on) is checked property-style:
on either side of a pair's ordering exchange, the pair's relative order under
the corresponding scoring functions flips.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference.exchanges import (
    build_exchange_angles_2d_reference,
    build_exchange_hyperplanes_reference,
    exchange_rows,
)

from repro.data.dataset import Dataset
from repro.exceptions import GeometryError
from repro.geometry.angles import to_weights
from repro.geometry.dual import (
    exchange_angle_2d,
    exchange_arrays_2d,
    exchange_normal,
    has_exchange,
    hyperplanes_for_dataset,
    hyperpolar,
    hyperpolar_many,
)
from repro.parallel.preprocess import make_parallel_exchange_builder


def item_vectors(dimension: int):
    return arrays(
        float,
        dimension,
        elements=st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
    )


class TestExchangeNormal:
    def test_is_difference(self):
        normal = exchange_normal(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
        assert np.allclose(normal, [-2.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            exchange_normal(np.array([1.0]), np.array([1.0, 2.0]))


class TestHasExchange:
    def test_dominated_pair_has_no_exchange(self):
        assert not has_exchange(np.array([2.0, 2.0]), np.array([1.0, 1.0]))

    def test_identical_items_have_no_exchange(self):
        assert not has_exchange(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_incomparable_pair_has_exchange(self):
        assert has_exchange(np.array([1.0, 2.0]), np.array([2.0, 1.0]))

    def test_allclose_but_unequal_items_exchange(self):
        assert has_exchange(np.array([1.0, 2.0]), np.array([1.0 + 5e-9, 2.0 - 5e-9]))

    def test_mismatched_shapes_raise(self):
        with pytest.raises(GeometryError):
            has_exchange(np.array([1.0]), np.array([1.0, 2.0, 3.0]))


class TestExchangeAngle2D:
    def test_paper_example(self):
        """The exchange of (1,2) and (2,1) is at 45 degrees (paper Figure 2)."""
        angle = exchange_angle_2d(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert angle == pytest.approx(math.pi / 4)

    def test_requires_2d(self):
        with pytest.raises(GeometryError):
            exchange_angle_2d(np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 3.0]))

    def test_dominated_pair_raises(self):
        with pytest.raises(GeometryError):
            exchange_angle_2d(np.array([2.0, 2.0]), np.array([1.0, 1.0]))

    @given(item_vectors(2), item_vectors(2))
    @settings(max_examples=100, deadline=None)
    def test_order_flips_across_the_exchange(self, first, second):
        assume(has_exchange(first, second))
        angle = exchange_angle_2d(first, second)
        assume(1e-6 < angle < math.pi / 2 - 1e-6)
        delta = min(angle, math.pi / 2 - angle) / 2
        below = np.array([math.cos(angle - delta), math.sin(angle - delta)])
        above = np.array([math.cos(angle + delta), math.sin(angle + delta)])
        sign_below = np.sign(np.dot(below, first - second))
        sign_above = np.sign(np.dot(above, first - second))
        assume(sign_below != 0 and sign_above != 0)
        assert sign_below == -sign_above

    @given(item_vectors(2), item_vectors(2))
    @settings(max_examples=100, deadline=None)
    def test_scores_tie_at_the_exchange(self, first, second):
        assume(has_exchange(first, second))
        angle = exchange_angle_2d(first, second)
        weights = np.array([math.cos(angle), math.sin(angle)])
        assert np.dot(weights, first) == pytest.approx(np.dot(weights, second), rel=1e-6, abs=1e-9)


class TestHyperpolar:
    def test_requires_md(self):
        with pytest.raises(GeometryError):
            hyperpolar(np.array([1.0, 2.0]), np.array([2.0, 1.0]))

    def test_dominated_pair_raises(self):
        with pytest.raises(GeometryError):
            hyperpolar(np.array([2.0, 2.0, 2.0]), np.array([1.0, 1.0, 1.0]))

    def test_label_is_preserved(self):
        plane = hyperpolar(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 1.0]), label=(0, 1))
        assert plane.label == (0, 1)

    def test_paper_figure8_pair(self):
        """The exchange of t1=(1,2,3) and t2=(2,4,1) from Figure 7/8 is representable."""
        plane = hyperpolar(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 1.0]))
        assert plane.dimension == 2

    def test_rounding_noise_in_the_normal_does_not_move_the_line(self):
        """One ulp on two scores leaves the line near the exact pair's, on both routes."""
        first = np.array([0.01, 2.300058363807645, 0.01])
        second = np.array([9.978303784769198, 0.01, 0.01])
        nudged = np.array([9.978303784769198, np.nextafter(0.01, 1.0), np.nextafter(0.01, 1.0)])
        line = hyperpolar(first, second).as_array()
        assert line == pytest.approx([0.7977922754081657, -0.15733214164732007], rel=1e-9)
        noisy = hyperpolar(first, nudged).as_array()
        assert noisy == pytest.approx(line, abs=0.02)
        (batched,) = hyperpolar_many(np.stack([first, nudged]), np.array([[0, 1]]))
        assert batched.as_array().tobytes() == noisy.tobytes()

    @given(item_vectors(3), item_vectors(3))
    # Near-axis pairs: away from where HYPERPOLAR sampled the exchange locus
    # the line drifts from it, by 0.45 · scale near the box centre for the second.
    @example(np.array([1.0, 0.125, 0.1875]), np.array([0.125, 1.0, 0.125]))
    @example(np.array([7.0, 0.0625, 0.359375]), np.array([0.125, 7.0, 0.34375]))
    # Scores one ulp apart in the last attribute: the exchange locus ends in
    # the corner (π/2, π/2), every angle point HYPERPOLAR samples rounds to
    # that corner, and the line θ₁ + θ₂ = π meets the box there only.
    @example(np.array([0.01, 0.01, np.nextafter(0.01, 1.0)]), np.array([1.0, 1.0, 0.01]))
    # Rounding noise in the normal: raising the last two scores of the second
    # item by one ulp leaves an entry of -1.7e-18 beside entries of order 1.
    # As a base-point coordinate of 1 / (|entry| · count) it would pin every
    # sample to one corner, so HYPERPOLAR counts it as zero.
    @example(
        np.array([0.01, 2.300058363807645, 0.01]), np.array([9.978303784769198, 0.01, 0.01])
    )
    @example(
        np.array([0.01, 2.300058363807645, 0.01]),
        np.array([9.978303784769198, np.nextafter(0.01, 1.0), np.nextafter(0.01, 1.0)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_points_on_the_hyperplane_give_near_ties(self, first, second):
        """The HYPERPOLAR line passes through rays that tie the pair inside the angle box.

        Algorithm 3 draws the line through angle points sampled on the exchange
        locus, so the pair's score gap vanishes on the line's segment inside
        ``[0, π/2]²``.  Along the line the gap changes by at most
        ``‖first − second‖`` per radian and the segment is at most ``π/√2``
        long, so the smallest gap over 2,001 evenly spaced points of it is at
        most ``1e-3 · ‖first − second‖``.

        The segment is cut from the box widened by ``1e-9`` rad on every side,
        so a line that meets the box at one corner only still has one when
        rounding moves its ends a few ulps past each other.  Clipping a sample
        back into the box moves it by at most ``√2 · 1e-9`` rad, which changes
        its gap by at most ``1.5e-9 · ‖first − second‖``.
        """
        assume(has_exchange(first, second))
        coefficients = hyperpolar(first, second).as_array()
        # The line coefficients · θ = 1 is its foot plus t times its direction.
        foot = coefficients / np.dot(coefficients, coefficients)
        along = np.array([-coefficients[1], coefficients[0]]) / np.linalg.norm(coefficients)
        margin = 1e-9
        low, high = -np.inf, np.inf
        for axis in range(2):
            if along[axis] != 0.0:
                ends = sorted(
                    (
                        (-margin - foot[axis]) / along[axis],
                        (math.pi / 2 + margin - foot[axis]) / along[axis],
                    )
                )
                low, high = max(low, ends[0]), min(high, ends[1])
        assert low <= high, "the line misses the angle box"
        points = np.clip(foot + np.linspace(low, high, 2001)[:, None] * along, 0.0, math.pi / 2)
        difference = first - second
        smallest_gap = min(abs(float(np.dot(to_weights(point), difference))) for point in points)
        assert smallest_gap <= 1e-3 * np.linalg.norm(difference)


class TestBatchConstruction:
    def test_build_exchange_angles_counts(self, paper_2d_dataset):
        exchanges = exchange_rows(exchange_arrays_2d(paper_2d_dataset))
        # All 5 items of Figure 3 are mutually non-dominated: C(5,2)=10 exchanges.
        assert len(exchanges) == 10
        assert all(0.0 <= angle <= math.pi / 2 for angle, _, _ in exchanges)
        assert exchanges == exchange_rows(build_exchange_angles_2d_reference(paper_2d_dataset))

    def test_build_exchange_angles_requires_2d(self, paper_3d_dataset):
        with pytest.raises(GeometryError, match="^exchange_arrays_2d requires"):
            exchange_arrays_2d(paper_3d_dataset)

    def test_sharded_exchange_builder_requires_2d(self, paper_3d_dataset):
        build = make_parallel_exchange_builder(2)
        with pytest.raises(GeometryError, match="^sharded exchange_arrays_2d requires"):
            build(paper_3d_dataset)

    def test_build_exchange_hyperplanes(self, paper_3d_dataset):
        hyperplanes = hyperplanes_for_dataset(paper_3d_dataset)
        labels = {plane.label for plane in hyperplanes}
        assert all(i < j for i, j in labels)
        # t3=(5.3,1,6) vs t1=(1,2,3): t3 does not dominate t1 (1 < 2 on y), so
        # every pair except dominated ones appears.
        assert len(hyperplanes) >= 4

    def test_build_exchange_hyperplanes_subset(self, paper_3d_dataset):
        subset = hyperplanes_for_dataset(paper_3d_dataset, item_indices=np.array([0, 1]))
        assert len(subset) == 1
        assert subset[0].label == (0, 1)

    def test_build_exchange_hyperplanes_requires_md(self, paper_2d_dataset):
        with pytest.raises(GeometryError):
            hyperplanes_for_dataset(paper_2d_dataset)

    def test_dominated_pairs_are_skipped(self):
        scores = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 1.0, 2.0]])
        dataset = Dataset(scores=scores, scoring_attributes=["a", "b", "c"])
        labels = {plane.label for plane in hyperplanes_for_dataset(dataset)}
        assert (0, 1) not in labels  # item 1 dominates item 0
        assert (1, 2) in labels


def uniform_dataset(n: int, d: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(
        scores=rng.uniform(0.05, 1.0, size=(n, d)),
        scoring_attributes=[f"a{k}" for k in range(d)],
    )


class TestHyperpolarMany:
    """The batched construction must be bit-identical to the scalar HYPERPOLAR."""

    @pytest.mark.perf_smoke
    @pytest.mark.parametrize("dimension", [3, 4, 5])
    def test_bit_identical_to_scalar_reference(self, dimension):
        dataset = uniform_dataset(40, dimension, seed=dimension)
        batched = hyperplanes_for_dataset(dataset)
        reference = build_exchange_hyperplanes_reference(dataset)
        assert len(batched) > 0
        # Hyperplane is a frozen dataclass: == compares the exact coefficient
        # tuples and labels, so this asserts bit-identity, not approximation.
        assert batched == reference

    @pytest.mark.perf_smoke
    def test_chunked_enumeration_is_invariant(self):
        dataset = uniform_dataset(30, 3, seed=9)
        whole = hyperplanes_for_dataset(dataset)
        chunked = hyperplanes_for_dataset(dataset, pair_chunk_size=4)
        assert whole == chunked

    def test_pairs_drive_labels_and_order(self, paper_3d_dataset):
        scores = paper_3d_dataset.scores
        pairs = np.array([[0, 1], [1, 2]])
        planes = hyperpolar_many(scores, pairs)
        assert [plane.label for plane in planes] == [(0, 1), (1, 2)]
        assert planes[0] == hyperpolar(scores[0], scores[1], label=(0, 1))
        assert planes[1] == hyperpolar(scores[1], scores[2], label=(1, 2))

    def test_explicit_labels_override(self, paper_3d_dataset):
        planes = hyperpolar_many(
            paper_3d_dataset.scores, np.array([[0, 1]]), labels=[(7, 8)]
        )
        assert planes[0].label == (7, 8)

    def test_empty_pairs(self, paper_3d_dataset):
        assert hyperpolar_many(paper_3d_dataset.scores, np.empty((0, 2), dtype=int)) == []

    def test_requires_md(self):
        with pytest.raises(GeometryError):
            hyperpolar_many(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[0, 1]]))

    def test_rejects_dominated_pairs(self):
        scores = np.array([[2.0, 2.0, 2.0], [1.0, 1.0, 1.0]])
        with pytest.raises(GeometryError):
            hyperpolar_many(scores, np.array([[0, 1]]))

    def test_rejects_malformed_pairs(self, paper_3d_dataset):
        with pytest.raises(GeometryError):
            hyperpolar_many(paper_3d_dataset.scores, np.array([0, 1]))
        with pytest.raises(GeometryError):
            hyperpolar_many(
                paper_3d_dataset.scores, np.array([[0, 1]]), labels=[(0, 1), (1, 2)]
            )

    def test_subset_matches_reference(self, paper_3d_dataset):
        indices = np.array([3, 0, 2])
        batched = hyperplanes_for_dataset(paper_3d_dataset, item_indices=indices)
        reference = build_exchange_hyperplanes_reference(
            paper_3d_dataset, item_indices=indices
        )
        assert batched == reference
