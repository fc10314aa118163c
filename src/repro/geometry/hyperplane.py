"""Hyperplanes, half-spaces and convex regions in the angle coordinate system.

Following the paper (§4.2), every ordering exchange is represented as a
hyperplane of the form :math:`\\sum_k h[k]\\,θ_k = 1` in the ``(d-1)``-dimensional
angle coordinate system.  The half-space :math:`\\sum h[k] θ_k \\le 1` is written
``h⁻`` and :math:`\\sum h[k] θ_k \\ge 1` is ``h⁺``; a convex region of the
arrangement is a conjunction of such half-spaces (Eq. 6), always intersected
with the legal angle box ``[0, π/2]^{d-1}``.

The Eq. 6 linear program (:func:`~repro.geometry.lp.feasible_point`) is the
specification of the split and emptiness tests.  At ``d = 3`` the angle space
is a plane and every region is a convex polygon, so a region also keeps its
vertices there and answers those two tests from the vertex values
``h · v - 1`` whenever the answer is certain; every uncertain case (a vertex
within the band of a hyperplane, a degenerate or empty polygon) and every
region of any other dimension runs the linear program.  Representative
points are Chebyshev centres.  The centring linear program
(:func:`~repro.geometry.lp.chebyshev_center`) is their specification; a
region with a solid polygon finds its centre from the polygon instead,
among the ``(x, y, r)`` solutions of the triples of rows that touch it, and
so agrees with the LP to round-off wherever the optimum is unique.  When the
optimum is a segment (two parallel rows, as in a rectangle) it returns the
segment's midpoint, where HiGHS returns one of its ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from repro.exceptions import GeometryError, InfeasibleRegionError
from repro.geometry.angles import HALF_PI
from repro.geometry.lp import chebyshev_center, feasible_point

__all__ = ["Hyperplane", "HalfSpace", "Region", "angle_box_bounds"]

#: Default slack used when testing sidedness; absorbs LP and float round-off.
_SIDE_TOLERANCE = 1e-12

#: The split test's margin: each side must be reachable with this much slack.
_SPLIT_MARGIN = 1e-12
#: A polygon vertex whose value ``h · v - 1`` lies within this band of zero
#: is too close to the hyperplane to certify a side.  It sits far above the
#: split margin, so a vertex beyond it satisfies its side with that slack.
_POLYGON_BAND = 1e-9
#: Every vertex this far beyond the hyperplane proves the other side empty.
#: It sits ten times above HiGHS's 1e-7 primal feasibility tolerance, so the
#: linear program cannot reach that side by bending a constraint either.
_POLYGON_FAR = 1e-6
#: A polygon whose area / perimeter (between half its inradius and its
#: inradius) does not exceed this floor is degenerate and decides nothing.
_POLYGON_FLOOR = 1e-9
#: A normalised row whose slack at some vertex is at most this touches the
#: polygon, so it may bound the inscribed circle.
_TOUCHING = 1e-9
#: A triple of rows whose ``(a, 1)`` system has a smaller determinant is singular.
_SINGULAR = 1e-12
#: Centre candidates whose radius is this close to the best are optimal, and
#: optimal candidates this close to each other are one point.
_TIE = 1e-12

#: Counter-clockwise corners of the two-dimensional angle box.
_BOX_POLYGON = ((0.0, 0.0), (HALF_PI, 0.0), (HALF_PI, HALF_PI), (0.0, HALF_PI))
#: The angle box as normalised rows ``a · θ <= b``, as the centring LP adds it.
_BOX_ROWS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
_BOX_RHS = np.array([HALF_PI, 0.0, HALF_PI, 0.0])


def angle_box_bounds(dimension: int) -> list[tuple[float, float]]:
    """Bounds of the legal angle box ``[0, π/2]^dimension``."""
    if dimension < 1:
        raise GeometryError("angle box needs at least one dimension")
    return [(0.0, HALF_PI)] * dimension


@dataclass(frozen=True)
class Hyperplane:
    """A hyperplane ``coefficients · θ = 1`` in angle space.

    Attributes
    ----------
    coefficients:
        Length ``d-1`` coefficient vector ``h``.
    label:
        Optional identifier, typically the item pair ``(i, j)`` whose ordering
        exchange this hyperplane represents.
    """

    coefficients: tuple[float, ...]
    label: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        coefficients = tuple(float(value) for value in self.coefficients)
        if len(coefficients) < 1:
            raise GeometryError("a hyperplane needs at least one coefficient")
        if not all(np.isfinite(coefficients)):
            raise GeometryError("hyperplane coefficients must be finite")
        if all(value == 0.0 for value in coefficients):
            raise GeometryError("hyperplane coefficients cannot all be zero")
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def dimension(self) -> int:
        """Dimension of the ambient angle space (``d - 1``)."""
        return len(self.coefficients)

    def as_array(self) -> np.ndarray:
        """Coefficient vector as a numpy array."""
        return np.asarray(self.coefficients, dtype=float)

    def evaluate(self, point: np.ndarray) -> float:
        """Return ``h · point - 1`` (negative on the ``h⁻`` side)."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dimension,):
            raise GeometryError(
                f"point of dimension {point.shape} does not match hyperplane of dimension "
                f"{self.dimension}"
            )
        return float(np.dot(self.as_array(), point) - 1.0)

    def side(self, point: np.ndarray, tolerance: float = _SIDE_TOLERANCE) -> int:
        """Return -1, 0 or +1 for the side of ``point`` relative to the hyperplane."""
        value = self.evaluate(point)
        if value > tolerance:
            return 1
        if value < -tolerance:
            return -1
        return 0

    def negative(self) -> "HalfSpace":
        """The closed half-space ``h · θ <= 1`` (written ``h⁻`` in the paper)."""
        return HalfSpace(self, -1)

    def positive(self) -> "HalfSpace":
        """The closed half-space ``h · θ >= 1`` (written ``h⁺`` in the paper)."""
        return HalfSpace(self, +1)

    def crosses_box(self, low: np.ndarray, high: np.ndarray) -> bool:
        """Return True if the hyperplane intersects the axis-aligned box [low, high].

        This is the §5.1 test used by ``CELLPLANE×``: evaluate ``h · θ`` at the
        box corners minimising and maximising the linear form (picking the low
        or high coordinate per sign of the coefficient) and check that 1 lies
        between them.
        """
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        if low.shape != (self.dimension,) or high.shape != (self.dimension,):
            raise GeometryError("box corners must match the hyperplane dimension")
        if np.any(low > high):
            raise GeometryError("box low corner must not exceed high corner")
        coefficients = self.as_array()
        minimum = float(np.sum(np.where(coefficients >= 0, coefficients * low, coefficients * high)))
        maximum = float(np.sum(np.where(coefficients >= 0, coefficients * high, coefficients * low)))
        return minimum <= 1.0 <= maximum


@dataclass(frozen=True)
class HalfSpace:
    """One side of a hyperplane: ``sign=-1`` is ``h · θ <= 1``, ``sign=+1`` is ``h · θ >= 1``."""

    hyperplane: Hyperplane
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise GeometryError("half-space sign must be -1 or +1")

    def contains(self, point: np.ndarray, tolerance: float = 1e-9) -> bool:
        """Return True if ``point`` lies in the (closed) half-space."""
        value = self.hyperplane.evaluate(point)
        return value <= tolerance if self.sign < 0 else value >= -tolerance

    def as_inequality(self) -> tuple[np.ndarray, float]:
        """Return ``(a, b)`` such that the half-space is ``a · θ <= b``."""
        coefficients = self.hyperplane.as_array()
        if self.sign < 0:
            return coefficients, 1.0
        return -coefficients, -1.0

    def flipped(self) -> "HalfSpace":
        """The opposite side of the same hyperplane."""
        return HalfSpace(self.hyperplane, -self.sign)


def _solid(polygon: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """``polygon`` as a tuple if its area / perimeter exceeds the floor, else ``()``."""
    if len(polygon) < 3:
        return ()
    twice_area = perimeter = 0.0
    previous_x, previous_y = polygon[-1]
    for x, y in polygon:
        twice_area += previous_x * y - x * previous_y
        perimeter += math.hypot(x - previous_x, y - previous_y)
        previous_x, previous_y = x, y
    return tuple(polygon) if 0.5 * twice_area > _POLYGON_FLOOR * perimeter else ()


def _clip(
    polygon: tuple[tuple[float, float], ...], half_space: HalfSpace
) -> tuple[tuple[float, float], ...]:
    """One Sutherland–Hodgman step: the part of a convex polygon inside ``half_space``.

    Returns ``()`` when no solid polygon remains, so an empty or degenerate
    region stays one under further clipping.
    """
    if not polygon:
        return ()
    h0, h1 = half_space.hyperplane.coefficients
    sign = half_space.sign
    # Positive means outside: h · v > 1 for h⁻, h · v < 1 for h⁺.
    outside = [(1.0 - h0 * x - h1 * y) * sign for x, y in polygon]
    clipped: list[tuple[float, float]] = []
    (previous_x, previous_y), previous = polygon[-1], outside[-1]
    for (x, y), value in zip(polygon, outside):
        if previous < 0.0 < value or value < 0.0 < previous:
            t = previous / (previous - value)
            clipped.append((previous_x + t * (x - previous_x), previous_y + t * (y - previous_y)))
        if value <= 0.0:
            clipped.append((x, y))
        previous_x, previous_y, previous = x, y, value
    return _solid(clipped)


def _inscribed_centre(
    polygon: tuple[tuple[float, float], ...], a_matrix: np.ndarray, b_vector: np.ndarray
) -> np.ndarray:
    """The Chebyshev centre of a solid polygon ``{θ : A θ <= b}`` within the box.

    The centring LP's optimum has three active rows, and each touches the
    polygon, so the centre is the best of the ``(x, y, r)`` solutions of
    every triple of touching rows, each scored by its true inscribed radius
    (its least slack over every row).  When several candidates far apart are
    optimal, the optimum is a segment and its midpoint is returned.
    """
    norms = np.hypot(a_matrix[:, 0], a_matrix[:, 1])
    rows = np.vstack([a_matrix / norms[:, None], _BOX_ROWS])
    rhs = np.concatenate([b_vector / norms, _BOX_RHS])
    slack = rhs[:, None] - rows @ np.asarray(polygon).T
    touching = np.flatnonzero(slack.min(axis=1) <= _TOUCHING)
    triples = np.array(list(combinations(touching, 3)))
    systems = np.dstack([rows[triples], np.ones(triples.shape)])
    regular = np.abs(np.linalg.det(systems)) > _SINGULAR
    solutions = np.linalg.solve(systems[regular], rhs[triples[regular], None])
    candidates = solutions[:, :2, 0]
    radii = (rhs[:, None] - rows @ candidates.T).min(axis=0)
    optimal = candidates[radii >= radii.max() - _TIE]
    gaps = np.linalg.norm(optimal[:, None] - optimal[None], axis=2)
    if gaps.max() <= _TIE:
        return candidates[np.argmax(radii)]
    first, last = np.unravel_index(np.argmax(gaps), gaps.shape)
    return (optimal[first] + optimal[last]) / 2.0


@dataclass
class Region:
    """A convex region of the arrangement: an intersection of half-spaces.

    Every region is implicitly intersected with the legal angle box
    ``[0, π/2]^{d-1}``.  The class caches an interior representative point the
    first time one is requested, because the arrangement algorithms evaluate
    the fairness oracle exactly once per region at such a point.

    A region of dimension 2 (``d = 3``) also keeps its convex polygon
    (:attr:`polygon`): the angle box clipped by each half-space in turn,
    counter-clockwise, or ``()`` once no solid polygon remains.
    :meth:`with_half_space` clips the parent's polygon once; a region
    constructed directly builds it on first use.
    """

    dimension: int
    half_spaces: list[HalfSpace] = field(default_factory=list)
    _cached_interior: np.ndarray | None = field(default=None, repr=False, compare=False)
    _witness: np.ndarray | None = field(default=None, repr=False, compare=False)
    _polygon: tuple[tuple[float, float], ...] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise GeometryError("a region needs a positive dimension")
        for half_space in self.half_spaces:
            if half_space.hyperplane.dimension != self.dimension:
                raise GeometryError("all half-spaces must live in the region's dimension")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def with_half_space(self, half_space: HalfSpace) -> "Region":
        """Return a new region further constrained by ``half_space``."""
        if half_space.hyperplane.dimension != self.dimension:
            raise GeometryError("half-space dimension mismatch")
        region = Region(self.dimension, [*self.half_spaces, half_space])
        if self.dimension == 2:
            region._polygon = _clip(self._vertices(), half_space)
        return region

    @classmethod
    def whole_space(cls, dimension: int) -> "Region":
        """The unconstrained region (the whole legal angle box)."""
        return cls(dimension, [])

    # ------------------------------------------------------------------ #
    # linear system view
    # ------------------------------------------------------------------ #
    def inequality_system(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(A, b)`` so that the region is ``{θ : A θ <= b}`` within the box."""
        if not self.half_spaces:
            return np.zeros((0, self.dimension)), np.zeros(0)
        rows = []
        rhs = []
        for half_space in self.half_spaces:
            a, b = half_space.as_inequality()
            rows.append(a)
            rhs.append(b)
        return np.asarray(rows, dtype=float), np.asarray(rhs, dtype=float)

    def bounds(self) -> list[tuple[float, float]]:
        """The legal angle box bounds for this region's dimension."""
        return angle_box_bounds(self.dimension)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def contains(self, point: np.ndarray, tolerance: float = 1e-9) -> bool:
        """Return True if ``point`` lies in the region (and the angle box)."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dimension,):
            raise GeometryError("point dimension mismatch")
        if np.any(point < -tolerance) or np.any(point > HALF_PI + tolerance):
            return False
        return all(half_space.contains(point, tolerance) for half_space in self.half_spaces)

    @property
    def polygon(self) -> tuple[tuple[float, float], ...]:
        """The convex polygon of a dimension-2 region: counter-clockwise vertices.

        ``()`` when no solid polygon remains (an empty or degenerate region).

        Raises
        ------
        GeometryError
            If the region's dimension is not 2.
        """
        if self.dimension != 2:
            raise GeometryError("only a dimension-2 region keeps a polygon")
        return self._vertices()

    def _vertices(self) -> tuple[tuple[float, float], ...]:
        """The polygon of a dimension-2 region, built from the half-spaces on first use."""
        if self._polygon is None:
            polygon = _BOX_POLYGON
            for half_space in self.half_spaces:
                polygon = _clip(polygon, half_space)
            self._polygon = polygon
        return self._polygon

    def _polygon_meets(self, hyperplane: Hyperplane | None = None) -> bool | None:
        """What the polygon proves: is the region non-empty, or split by ``hyperplane``?

        Returns None whenever the answer is not certain — any dimension but 2,
        a degenerate or empty polygon, or a vertex value ``h · v - 1`` inside
        the band where the linear program's tolerances could tip the answer —
        and the caller then runs the linear program.
        """
        if self.dimension != 2:
            return None
        polygon = self._vertices()
        if not polygon:
            return None
        if hyperplane is None:
            return True
        h0, h1 = hyperplane.coefficients
        values = [h0 * x + h1 * y - 1.0 for x, y in polygon]
        low, high = min(values), max(values)
        if low < -_POLYGON_BAND and high > _POLYGON_BAND:
            return True
        if low > _POLYGON_FAR or high < -_POLYGON_FAR:
            return False
        return None

    def is_empty(self, margin: float = 0.0) -> bool:
        """Return True if no point of the angle box satisfies every half-space.

        A solid polygon answers "not empty" for margins up to the split test's;
        otherwise the Eq. 6 linear program decides.
        """
        if margin <= _SPLIT_MARGIN and self._polygon_meets() is not None:
            return False
        a_matrix, b_vector = self.inequality_system()
        return not feasible_point(a_matrix, b_vector, self.bounds(), margin=margin).feasible

    def intersects_hyperplane(
        self, hyperplane: Hyperplane, margin: float = _SPLIT_MARGIN
    ) -> bool:
        """Return True if ``hyperplane`` passes through the region (Eq. 6 LP test).

        A hyperplane splits the region iff both of its closed half-spaces have
        a non-empty intersection with the region: requiring both sides to be
        reachable avoids "splitting" a region the hyperplane merely touches.

        A dimension-2 region answers from its polygon when the vertex values
        make the answer certain.  A hyperplane with the coefficients of one
        that already bounds the region (tied scores give different item
        pairs the same hyperplane) leaves the whole region on one side, so it
        does not split it.  Otherwise the linear program decides: when
        a point of the region is already known (the cached interior point or
        an earlier witness), the side it falls on is reachable for free and
        only the opposite side needs a feasibility LP; without one, both
        sides do.
        """
        if hyperplane.dimension != self.dimension:
            raise GeometryError("hyperplane dimension mismatch")
        if margin <= _SPLIT_MARGIN:
            meets = self._polygon_meets(hyperplane)
            if meets is not None:
                return meets
        coefficients = hyperplane.coefficients
        if any(side.hyperplane.coefficients == coefficients for side in self.half_spaces):
            return False
        a_matrix, b_vector = self.inequality_system()
        sides = [hyperplane.negative(), hyperplane.positive()]
        certificate = self._cached_interior if self._cached_interior is not None else self._witness
        if certificate is not None:
            value = hyperplane.evaluate(certificate)
            if abs(value) > 1e-9:
                # The known feasible point certifies its own side; test only the other.
                sides = [hyperplane.positive() if value < 0 else hyperplane.negative()]
        for side in sides:
            a_extra, b_extra = side.as_inequality()
            a_full = np.vstack([a_matrix, a_extra]) if a_matrix.size else a_extra[None, :]
            b_full = (
                np.concatenate([b_vector, [b_extra]]) if a_matrix.size else np.asarray([b_extra])
            )
            result = feasible_point(a_full, b_full, self.bounds(), margin=margin)
            if not result.feasible:
                return False
            if self._witness is None and result.point is not None:
                # Any feasible point of (region ∧ side) also lies in the region;
                # remember it to certify sides of future hyperplanes for free.
                self._witness = result.point
        return True

    def _polygon_centre(self, a_matrix: np.ndarray, b_vector: np.ndarray) -> np.ndarray | None:
        """The Chebyshev centre of the region's solid polygon, else None (the LP decides)."""
        if self.dimension != 2:
            return None
        polygon = self._vertices()
        return _inscribed_centre(polygon, a_matrix, b_vector) if polygon else None

    def interior_point(self) -> np.ndarray:
        """Return a point well inside the region (Chebyshev centre).

        A dimension-2 region with a solid polygon computes the centre from
        the polygon; every other region solves the centring LP.

        Raises
        ------
        InfeasibleRegionError
            If the region is empty.
        """
        if self._cached_interior is not None:
            return self._cached_interior
        a_matrix, b_vector = self.inequality_system()
        if a_matrix.size == 0:
            centre = np.full(self.dimension, HALF_PI / 2.0)
            self._cached_interior = centre
            return centre
        point = self._polygon_centre(a_matrix, b_vector)
        if point is None:
            result = chebyshev_center(a_matrix, b_vector, self.bounds())
            if not result.feasible or result.point is None:
                raise InfeasibleRegionError("region has no interior point")
            point = result.point
        point = np.clip(point, 0.0, HALF_PI)
        self._cached_interior = point
        if self._witness is None:
            self._witness = point
        return point

    def split(self, hyperplane: Hyperplane) -> tuple["Region", "Region"]:
        """Split the region by a hyperplane into its ``h⁻`` and ``h⁺`` parts."""
        return self.with_half_space(hyperplane.negative()), self.with_half_space(
            hyperplane.positive()
        )

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def defining_hyperplanes(self) -> list[Hyperplane]:
        """The hyperplanes whose half-spaces define this region (with repeats removed)."""
        seen: list[Hyperplane] = []
        for half_space in self.half_spaces:
            if half_space.hyperplane not in seen:
                seen.append(half_space.hyperplane)
        return seen

    def __len__(self) -> int:
        return len(self.half_spaces)

