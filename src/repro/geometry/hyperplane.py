"""Hyperplanes, half-spaces and convex regions in the angle coordinate system.

Following the paper (§4.2), every ordering exchange is represented as a
hyperplane of the form :math:`\\sum_k h[k]\\,θ_k = 1` in the ``(d-1)``-dimensional
angle coordinate system.  The half-space :math:`\\sum h[k] θ_k \\le 1` is written
``h⁻`` and :math:`\\sum h[k] θ_k \\ge 1` is ``h⁺``; a convex region of the
arrangement is a conjunction of such half-spaces (Eq. 6), always intersected
with the legal angle box ``[0, π/2]^{d-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import GeometryError, InfeasibleRegionError
from repro.geometry.angles import HALF_PI
from repro.geometry.lp import chebyshev_center, feasible_point

__all__ = ["Hyperplane", "HalfSpace", "Region", "angle_box_bounds"]

#: Default slack used when testing sidedness; absorbs LP and float round-off.
_SIDE_TOLERANCE = 1e-12


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


@dataclass
class Region:
    """A convex region of the arrangement: an intersection of half-spaces.

    Every region is implicitly intersected with the legal angle box
    ``[0, π/2]^{d-1}``.  The class caches an interior representative point the
    first time one is requested, because the arrangement algorithms evaluate
    the fairness oracle exactly once per region at such a point.
    """

    dimension: int
    half_spaces: list[HalfSpace] = field(default_factory=list)
    _cached_interior: np.ndarray | None = field(default=None, repr=False, compare=False)
    _witness: np.ndarray | None = field(default=None, repr=False, compare=False)

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
        return Region(self.dimension, [*self.half_spaces, half_space])

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

    def is_empty(self, margin: float = 0.0) -> bool:
        """Return True if no point of the angle box satisfies every half-space."""
        a_matrix, b_vector = self.inequality_system()
        return not feasible_point(a_matrix, b_vector, self.bounds(), margin=margin).feasible

    def intersects_hyperplane(self, hyperplane: Hyperplane, margin: float = 1e-12) -> bool:
        """Return True if ``hyperplane`` passes through the region (Eq. 6 LP test).

        A hyperplane splits the region iff both of its closed half-spaces have
        a non-empty intersection with the region: requiring both sides to be
        reachable avoids "splitting" a region the hyperplane merely touches.

        When an interior point of the region is already cached, the side it
        falls on is known to be reachable for free, so only the opposite side
        needs a feasibility LP — this halves the number of LPs solved during
        arrangement construction.
        """
        if hyperplane.dimension != self.dimension:
            raise GeometryError("hyperplane dimension mismatch")
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

    def interior_point(self) -> np.ndarray:
        """Return a point well inside the region (Chebyshev centre).

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
        result = chebyshev_center(a_matrix, b_vector, self.bounds())
        if not result.feasible or result.point is None:
            raise InfeasibleRegionError("region has no interior point")
        point = np.clip(result.point, 0.0, HALF_PI)
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

