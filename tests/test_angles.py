"""Unit and property tests for the angle coordinate system."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference.angles import to_weights_loop

from repro.exceptions import GeometryError
from repro.geometry.angles import (
    HALF_PI,
    angular_distance,
    angular_distance_angles,
    clamp_angles,
    is_first_orthant_direction,
    to_angles,
    to_angles_many,
    to_weights,
    to_weights_many,
)


def direction_arrays(dimension: int):
    """Hypothesis strategy for valid first-orthant directions."""
    return arrays(
        float,
        dimension,
        elements=st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    ).filter(lambda w: np.any(w > 1e-6))


class TestToAngles:
    def test_2d_matches_arctangent(self):
        angles = to_angles(np.array([1.0, 1.0]))
        assert angles.shape == (1,)
        assert angles[0] == pytest.approx(math.pi / 4)

    def test_axis_directions(self):
        assert to_angles(np.array([1.0, 0.0]))[0] == pytest.approx(0.0)
        assert to_angles(np.array([0.0, 1.0]))[0] == pytest.approx(HALF_PI)

    def test_3d_known_value(self):
        angles = to_angles(np.array([0.0, 0.0, 1.0]))
        assert angles[0] == pytest.approx(HALF_PI)
        assert angles[1] == pytest.approx(HALF_PI)

    def test_scale_invariance(self):
        first = to_angles(np.array([0.2, 0.5, 0.3]))
        second = to_angles(np.array([2.0, 5.0, 3.0]))
        assert np.allclose(first, second)

    def test_rejects_negative_weights(self):
        with pytest.raises(GeometryError):
            to_angles(np.array([1.0, -0.1]))

    def test_rejects_zero_vector(self):
        with pytest.raises(GeometryError):
            to_angles(np.zeros(3))

    def test_rejects_single_weight(self):
        with pytest.raises(GeometryError):
            to_angles(np.array([1.0]))

    @given(direction_arrays(4))
    @settings(max_examples=80, deadline=None)
    def test_angles_in_legal_box(self, weights):
        angles = to_angles(weights)
        assert np.all(angles >= 0.0)
        assert np.all(angles <= HALF_PI + 1e-12)


class TestToAnglesMany:
    @pytest.mark.perf_smoke
    @pytest.mark.parametrize("dimension", [2, 3, 4, 5])
    def test_bit_identical_to_scalar_rows(self, dimension):
        rng = np.random.default_rng(dimension)
        matrix = rng.uniform(0.0, 10.0, size=(200, dimension))
        matrix[::7] = 0.0
        matrix[::7, 0] = 1.0  # rows with a single positive entry
        batched = to_angles_many(matrix)
        scalar = np.array([to_angles(row) for row in matrix])
        assert np.array_equal(batched, scalar)

    def test_rejects_non_matrix_input(self):
        with pytest.raises(GeometryError):
            to_angles_many(np.array([1.0, 2.0]))
        with pytest.raises(GeometryError):
            to_angles_many(np.ones((3, 1)))

    def test_rejects_invalid_rows(self):
        with pytest.raises(GeometryError):
            to_angles_many(np.array([[1.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(GeometryError):
            to_angles_many(np.array([[1.0, -2.0]]))


class TestToWeights:
    def test_unit_norm_output(self):
        weights = to_weights(np.array([0.3, 0.7]))
        assert np.linalg.norm(weights) == pytest.approx(1.0)

    def test_radius_scaling(self):
        weights = to_weights(np.array([0.5]), radius=3.0)
        assert np.linalg.norm(weights) == pytest.approx(3.0)

    def test_rejects_non_positive_radius(self):
        with pytest.raises(GeometryError):
            to_weights(np.array([0.5]), radius=0.0)

    def test_rejects_nan_angles(self):
        with pytest.raises(GeometryError):
            to_weights(np.array([np.nan]))

    @given(direction_arrays(3))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_preserves_direction(self, weights):
        """to_weights(to_angles(w)) is the unit vector along w (the same ray)."""
        angles = to_angles(weights)
        recovered = to_weights(angles)
        expected = weights / np.linalg.norm(weights)
        assert np.allclose(recovered, expected, atol=1e-9)

    @given(
        arrays(float, 2, elements=st.floats(0.0, HALF_PI, allow_nan=False)),
    )
    @settings(max_examples=80, deadline=None)
    def test_inverse_round_trip_from_angles(self, angles):
        """to_angles(to_weights(Θ)) = Θ except at degenerate poles."""
        weights = to_weights(angles)
        if np.count_nonzero(weights > 1e-9) < 2 and not np.allclose(angles, to_angles(weights)):
            # At the poles several angle vectors map to the same ray; only the
            # direction is recoverable, which the previous test covers.
            return
        assert angular_distance_angles(angles, to_angles(weights)) == pytest.approx(0.0, abs=1e-7)


def _hex_rows(matrix: np.ndarray) -> list[list[str]]:
    return [[value.hex() for value in row] for row in matrix.tolist()]


class TestToWeightsMany:
    """Both conversions against the scalar loop they replace, by ``float.hex``."""

    @pytest.mark.perf_smoke
    @pytest.mark.parametrize("radius", [1.0, 2.5])
    @pytest.mark.parametrize("dimension", [2, 3, 4, 5])
    def test_bit_identical_to_the_scalar_loop(self, dimension, radius):
        rng = np.random.default_rng(dimension)
        angles = rng.uniform(0.0, HALF_PI, size=(120, dimension - 1))
        angles[::4, 0] = 0.0
        angles[1::4, -1] = HALF_PI
        angles[2::8] = HALF_PI
        angles[3::8] = 0.0
        looped = np.stack([to_weights_loop(row, radius=radius) for row in angles])
        batched = to_weights_many(angles, radius=radius)
        assert batched.shape == (120, dimension)
        assert _hex_rows(batched) == _hex_rows(looped)
        rows = np.stack([to_weights(row, radius=radius) for row in angles])
        assert _hex_rows(rows) == _hex_rows(looped)

    @given(
        arrays(float, (6, 3), elements=st.floats(-4.0, 4.0, allow_nan=False)),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_outside_the_box_too(self, angles, radius):
        """Angles outside ``[0, π/2]`` make negative products, which both clip."""
        looped = np.stack([to_weights_loop(row, radius=radius) for row in angles])
        assert _hex_rows(to_weights_many(angles, radius=radius)) == _hex_rows(looped)
        assert _hex_rows(np.stack([to_weights(row, radius) for row in angles])) == _hex_rows(
            looped
        )

    def test_empty_batch(self):
        assert to_weights_many(np.zeros((0, 2))).shape == (0, 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_angles_like_the_scalar(self, value):
        angles = np.full((3, 2), 0.5)
        angles[1, 0] = value
        with pytest.raises(GeometryError, match="angles must be finite"):
            to_weights(angles[1])
        with pytest.raises(GeometryError, match="angles must be finite"):
            to_weights_many(angles)

    @pytest.mark.parametrize("shape", [(3,), (2, 0), (2, 2, 2)])
    def test_rejects_a_bad_shape(self, shape):
        with pytest.raises(GeometryError, match="angle matrix"):
            to_weights_many(np.zeros(shape))

    def test_rejects_non_positive_radius(self):
        with pytest.raises(GeometryError, match="radius must be positive"):
            to_weights_many(np.zeros((1, 2)), radius=0.0)


class TestAngularDistance:
    def test_identical_rays_have_zero_distance(self):
        assert angular_distance([1.0, 1.0], [10.0, 10.0]) == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_axes(self):
        assert angular_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(HALF_PI)

    def test_paper_example(self):
        """Distance between x+y and x is π/4 (paper §2)."""
        assert angular_distance([1.0, 1.0], [1.0, 0.0]) == pytest.approx(math.pi / 4)

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            angular_distance([1.0, 0.0], [1.0, 0.0, 0.0])

    @given(direction_arrays(3), direction_arrays(3))
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, first, second):
        assert angular_distance(first, second) == pytest.approx(
            angular_distance(second, first), abs=1e-12
        )

    @given(direction_arrays(3), direction_arrays(3), direction_arrays(3))
    # Parallel rays at different scales: arccos noise makes the left side
    # ~1.5e-8 while both right-side terms are exactly 0.
    @example(
        np.array([1.56450694] * 3), np.array([1.0] * 3), np.array([1.59375] * 3)
    )
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        # Slack covers arccos noise near parallel rays (~1.5e-8 for exactly
        # parallel inputs whose normalised dot product rounds above 1).
        assert angular_distance(a, c) <= angular_distance(a, b) + angular_distance(b, c) + 1e-7

    @given(direction_arrays(4))
    @settings(max_examples=50, deadline=None)
    def test_first_orthant_distances_at_most_half_pi(self, weights):
        other = np.ones(4)
        assert 0.0 <= angular_distance(weights, other) <= HALF_PI + 1e-12


class TestHelpers:
    def test_is_first_orthant_direction(self):
        assert is_first_orthant_direction(np.array([0.0, 1.0]))
        assert not is_first_orthant_direction(np.array([0.0, 0.0]))
        assert not is_first_orthant_direction(np.array([-1.0, 1.0]))
        assert not is_first_orthant_direction(np.array([np.inf, 1.0]))

    def test_clamp_angles(self):
        clamped = clamp_angles(np.array([-0.1, HALF_PI + 0.1, 0.5]))
        assert clamped[0] == 0.0
        assert clamped[1] == HALF_PI
        assert clamped[2] == 0.5
