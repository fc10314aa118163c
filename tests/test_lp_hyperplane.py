"""Tests for the LP helpers and the hyperplane / half-space / region primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GeometryError, InfeasibleRegionError
from repro.geometry.angles import HALF_PI
from repro.geometry.hyperplane import HalfSpace, Hyperplane, Region, angle_box_bounds
from repro.geometry.lp import chebyshev_center, feasible_point, is_feasible


class TestLP:
    def test_feasible_box_without_constraints(self):
        result = feasible_point(None, None, [(0.0, 1.0), (0.0, 1.0)])
        assert result.feasible
        assert result.point.shape == (2,)

    def test_infeasible_contradictory_constraints(self):
        a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b = np.array([0.2, -0.8])  # x <= 0.2 and x >= 0.8
        assert not is_feasible(a, b, [(0.0, 1.0), (0.0, 1.0)])

    def test_margin_makes_tight_system_infeasible(self):
        a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b = np.array([0.5, -0.5])  # x == 0.5 exactly
        assert is_feasible(a, b, [(0.0, 1.0), (0.0, 1.0)])
        assert not is_feasible(a, b, [(0.0, 1.0), (0.0, 1.0)], margin=1e-3)

    def test_negative_margin_rejected(self):
        with pytest.raises(GeometryError):
            feasible_point(None, None, [(0.0, 1.0)], margin=-1.0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(GeometryError):
            feasible_point(None, None, [(1.0, 0.0)])

    def test_mismatched_system_rejected(self):
        with pytest.raises(GeometryError):
            feasible_point(np.ones((2, 3)), np.ones(2), [(0.0, 1.0)] * 2)

    def test_chebyshev_center_of_box(self):
        result = chebyshev_center(None, None, [(0.0, 1.0), (0.0, 1.0)])
        assert result.feasible
        assert np.allclose(result.point, [0.5, 0.5], atol=1e-6)
        assert result.margin == pytest.approx(0.5, abs=1e-6)

    def test_chebyshev_center_respects_constraints(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([0.5])
        result = chebyshev_center(a, b, [(0.0, 1.0), (0.0, 1.0)])
        assert result.point.sum() <= 0.5 + 1e-9

    def test_chebyshev_center_infeasible_raises(self):
        a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b = np.array([0.2, -0.8])
        with pytest.raises(InfeasibleRegionError):
            chebyshev_center(a, b, [(0.0, 1.0), (0.0, 1.0)])


class TestHyperplane:
    def test_evaluate_and_side(self):
        hyperplane = Hyperplane((2.0, 0.0))
        assert hyperplane.evaluate(np.array([0.5, 0.3])) == pytest.approx(0.0)
        assert hyperplane.side(np.array([0.6, 0.0])) == 1
        assert hyperplane.side(np.array([0.4, 0.0])) == -1
        assert hyperplane.side(np.array([0.5, 0.9])) == 0

    def test_rejects_all_zero_coefficients(self):
        with pytest.raises(GeometryError):
            Hyperplane((0.0, 0.0))

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(GeometryError):
            Hyperplane(())
        with pytest.raises(GeometryError):
            Hyperplane((np.nan, 1.0))

    def test_dimension_mismatch_on_evaluate(self):
        with pytest.raises(GeometryError):
            Hyperplane((1.0, 1.0)).evaluate(np.array([1.0]))

    def test_crosses_box(self):
        hyperplane = Hyperplane((1.0, 1.0))  # x + y = 1
        assert hyperplane.crosses_box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert not hyperplane.crosses_box(np.array([0.6, 0.6]), np.array([1.0, 1.0]))
        assert not hyperplane.crosses_box(np.array([0.0, 0.0]), np.array([0.4, 0.4]))

    def test_crosses_box_with_negative_coefficient(self):
        hyperplane = Hyperplane((2.0, -1.0))  # 2x - y = 1
        assert hyperplane.crosses_box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert not hyperplane.crosses_box(np.array([0.0, 0.9]), np.array([0.2, 1.0]))

    def test_crosses_box_validates_corners(self):
        hyperplane = Hyperplane((1.0, 1.0))
        with pytest.raises(GeometryError):
            hyperplane.crosses_box(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    @given(st.floats(0.1, 5.0), st.floats(-5.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_side_consistency_with_halfspaces(self, a, b):
        if abs(b) < 1e-6:
            b = 1.0
        hyperplane = Hyperplane((a, b))
        point = np.array([0.3, 0.4])
        value = hyperplane.evaluate(point)
        assert hyperplane.negative().contains(point) == (value <= 1e-9)
        assert hyperplane.positive().contains(point) == (value >= -1e-9)


class TestHalfSpace:
    def test_sign_validation(self):
        with pytest.raises(GeometryError):
            HalfSpace(Hyperplane((1.0,)), 0)

    def test_as_inequality_negative(self):
        a, b = Hyperplane((2.0, 3.0)).negative().as_inequality()
        assert np.allclose(a, [2.0, 3.0])
        assert b == 1.0

    def test_as_inequality_positive(self):
        a, b = Hyperplane((2.0, 3.0)).positive().as_inequality()
        assert np.allclose(a, [-2.0, -3.0])
        assert b == -1.0

    def test_flipped(self):
        half_space = Hyperplane((1.0, 0.0)).negative()
        assert half_space.flipped().sign == 1


def _plane(dimension: int, *coefficients: float) -> Hyperplane:
    """A hyperplane of the angle plane, extended by zero coefficients to ``dimension``."""
    return Hyperplane(coefficients + (0.0,) * (dimension - len(coefficients)))


def _point(dimension: int, *values: float) -> np.ndarray:
    """A point of the angle plane, extended by 0.5 coordinates to ``dimension``."""
    return np.array(values + (0.5,) * (dimension - len(values)))


#: Dimension 2 (d = 3) answers split and emptiness tests from the region's
#: polygon; dimension 3 (d = 4) keeps the linear-program route.
@pytest.mark.parametrize("dimension", [2, 3])
class TestRegion:
    def test_whole_space_contains_everything_in_box(self, dimension):
        region = Region.whole_space(dimension)
        assert region.contains(_point(dimension, 0.1, 1.2))
        assert not region.contains(_point(dimension, 0.1, HALF_PI + 0.5))

    def test_with_half_space_restricts(self, dimension):
        hyperplane = _plane(dimension, 1.0, 1.0)
        region = Region.whole_space(dimension).with_half_space(hyperplane.negative())
        assert region.contains(_point(dimension, 0.2, 0.3))
        assert not region.contains(_point(dimension, 1.0, 1.0))

    def test_interior_point_satisfies_constraints(self, dimension):
        hyperplane = _plane(dimension, 1.0, 1.0)
        region = Region.whole_space(dimension).with_half_space(hyperplane.negative())
        point = region.interior_point()
        assert region.contains(point)
        assert hyperplane.evaluate(point) < 0.0

    def test_interior_point_of_empty_region_raises(self, dimension):
        hyperplane = _plane(dimension, 1000.0, 1000.0)
        region = (
            Region.whole_space(dimension)
            .with_half_space(hyperplane.negative())
            .with_half_space(_plane(dimension, 0.1, 0.1).positive())
        )
        assert region.is_empty()
        with pytest.raises(InfeasibleRegionError):
            region.interior_point()

    def test_split_produces_complementary_regions(self, dimension):
        hyperplane = _plane(dimension, 1.0, 1.0)
        below, above = Region.whole_space(dimension).split(hyperplane)
        point = _point(dimension, 0.2, 0.2)
        assert below.contains(point)
        assert not above.contains(point)

    def test_intersects_hyperplane_true_and_false(self, dimension):
        region = Region.whole_space(dimension).with_half_space(
            _plane(dimension, 1.0, 1.0).negative()
        )
        assert region.intersects_hyperplane(_plane(dimension, 1.5, 1.5))
        assert not region.intersects_hyperplane(_plane(dimension, 0.1, 0.1))

    def test_intersects_uses_cached_interior(self, dimension):
        region = Region.whole_space(dimension).with_half_space(
            _plane(dimension, 1.0, 1.0).negative()
        )
        region.interior_point()  # populate the cache
        assert region.intersects_hyperplane(_plane(dimension, 1.5, 1.5))
        assert not region.intersects_hyperplane(_plane(dimension, 0.1, 0.1))

    def test_defining_hyperplanes_deduplicates(self, dimension):
        hyperplane = _plane(dimension, 1.0, 1.0)
        region = (
            Region.whole_space(dimension)
            .with_half_space(hyperplane.negative())
            .with_half_space(hyperplane.negative())
        )
        assert len(region.defining_hyperplanes()) == 1

    def test_dimension_checks(self, dimension):
        with pytest.raises(GeometryError):
            Region.whole_space(0)
        with pytest.raises(GeometryError):
            Region.whole_space(dimension).with_half_space(Hyperplane((1.0,)).negative())

    def test_angle_box_bounds(self, dimension):
        assert angle_box_bounds(dimension) == [(0.0, HALF_PI)] * dimension
        with pytest.raises(GeometryError):
            angle_box_bounds(0)
