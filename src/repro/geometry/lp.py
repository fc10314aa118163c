"""Linear-programming helpers built on :func:`scipy.optimize.linprog`.

The arrangement algorithms of the paper (§4–5) repeatedly ask two questions
about a convex region described by linear inequalities over the angle
coordinates:

* *is the region non-empty*, i.e. does a point satisfying all constraints
  exist (used when inserting a hyperplane into the arrangement and when
  checking whether a hyperplane passes through a sub-tree / cell), and
* *give me a point inside the region*, used as the representative function
  whose ordering is handed to the fairness oracle.

Both are answered here.  Regions in the paper are open (they exclude their
bounding hyperplanes), so the feasibility routine supports a small interior
margin and the representative-point routine returns the Chebyshev centre,
the point deepest inside the region.

Both routines are the specifications of their questions.  At ``d = 3`` a
:class:`~repro.geometry.hyperplane.Region` answers the first from its convex
polygon whenever the answer is certain and calls the feasibility routine
only in the uncertain cases, and it finds the Chebyshev centre of a solid
polygon from the polygon, calling :func:`chebyshev_center` only for a
degenerate one; at every other dimension each is a linear program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from repro.exceptions import GeometryError, InfeasibleRegionError

__all__ = ["LPResult", "feasible_point", "chebyshev_center", "is_feasible"]


@dataclass(frozen=True)
class LPResult:
    """Outcome of a feasibility / centring linear program."""

    feasible: bool
    point: np.ndarray | None
    margin: float = 0.0


def _validate_system(
    a_ub: np.ndarray | None, b_ub: np.ndarray | None, bounds: list[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray, int]:
    if not bounds:
        raise GeometryError("bounds must describe at least one variable")
    dimension = len(bounds)
    if a_ub is None or len(a_ub) == 0:
        a_matrix = np.zeros((0, dimension), dtype=float)
        b_vector = np.zeros(0, dtype=float)
    else:
        a_matrix = np.asarray(a_ub, dtype=float)
        b_vector = np.asarray(b_ub, dtype=float)
        if a_matrix.ndim != 2 or a_matrix.shape[1] != dimension:
            raise GeometryError(
                f"constraint matrix has shape {a_matrix.shape}, expected (*, {dimension})"
            )
        if b_vector.shape != (a_matrix.shape[0],):
            raise GeometryError("right-hand side length must match the number of constraints")
    for low, high in bounds:
        if low > high:
            raise GeometryError(f"invalid bound ({low}, {high})")
    return a_matrix, b_vector, dimension


def is_feasible(
    a_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    bounds: list[tuple[float, float]],
    margin: float = 0.0,
) -> bool:
    """Return True if ``A x <= b - margin`` has a solution within ``bounds``."""
    return feasible_point(a_ub, b_ub, bounds, margin=margin).feasible


def feasible_point(
    a_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    bounds: list[tuple[float, float]],
    margin: float = 0.0,
) -> LPResult:
    """Find any point satisfying ``A x <= b - margin`` within box ``bounds``.

    Parameters
    ----------
    a_ub, b_ub:
        Inequality system ``A x <= b``; ``None`` means no linear constraints.
    bounds:
        Per-variable ``(low, high)`` box.
    margin:
        Require constraints to hold with this slack, which turns open regions
        of the arrangement into closed ones with a strictly interior witness.

    Returns
    -------
    LPResult
        ``feasible`` flag and the witness point (``None`` if infeasible).
    """
    a_matrix, b_vector, dimension = _validate_system(a_ub, b_ub, bounds)
    if margin < 0:
        raise GeometryError("margin must be non-negative")
    result = linprog(
        c=np.zeros(dimension),
        A_ub=a_matrix if a_matrix.size else None,
        b_ub=(b_vector - margin) if a_matrix.size else None,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        return LPResult(feasible=False, point=None)
    return LPResult(feasible=True, point=np.asarray(result.x, dtype=float), margin=margin)


def chebyshev_center(
    a_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    bounds: list[tuple[float, float]],
) -> LPResult:
    """Return the Chebyshev centre of ``{x : A x <= b, low <= x <= high}``.

    The Chebyshev centre maximises the radius of a ball contained in the
    region, so it is the most robust interior representative to hand to the
    fairness oracle: a tiny numerical perturbation cannot push it across a
    bounding hyperplane into a neighbouring region with a different ordering.

    Raises
    ------
    InfeasibleRegionError
        If the region is empty (no feasible point at all).
    """
    a_matrix, b_vector, dimension = _validate_system(a_ub, b_ub, bounds)
    # Augment with the box constraints so the inscribed ball respects them too.
    box_rows = []
    box_rhs = []
    for index, (low, high) in enumerate(bounds):
        row = np.zeros(dimension)
        row[index] = 1.0
        box_rows.append(row.copy())
        box_rhs.append(high)
        row_neg = np.zeros(dimension)
        row_neg[index] = -1.0
        box_rows.append(row_neg)
        box_rhs.append(-low)
    full_a = np.vstack([a_matrix, np.asarray(box_rows)]) if a_matrix.size else np.asarray(box_rows)
    full_b = (
        np.concatenate([b_vector, np.asarray(box_rhs)]) if a_matrix.size else np.asarray(box_rhs)
    )
    norms = np.linalg.norm(full_a, axis=1)
    # Degenerate all-zero rows (possible if a hyperplane has zero coefficients)
    # contribute nothing to the geometry; drop them to keep the LP well posed.
    keep = norms > 0
    full_a = full_a[keep]
    full_b = full_b[keep]
    norms = norms[keep]
    if full_a.shape[0] == 0:
        raise GeometryError("chebyshev_center requires at least one constraint")
    # Variables: (x, radius).  Maximise radius subject to A x + ||a_i|| r <= b.
    objective = np.zeros(dimension + 1)
    objective[-1] = -1.0
    augmented = np.hstack([full_a, norms[:, None]])
    lp_bounds = [(None, None)] * dimension + [(0.0, None)]
    result = linprog(
        c=objective, A_ub=augmented, b_ub=full_b, bounds=lp_bounds, method="highs"
    )
    if not result.success:
        raise InfeasibleRegionError("region has no interior point (empty or degenerate)")
    point = np.asarray(result.x[:dimension], dtype=float)
    radius = float(result.x[-1])
    if radius <= 0.0:
        # The region is non-empty but has an empty interior (lower dimensional).
        # Fall back to any feasible point so callers can still evaluate it.
        fallback = feasible_point(a_matrix if a_matrix.size else None, b_vector, bounds)
        if not fallback.feasible:
            raise InfeasibleRegionError("region is empty")
        return LPResult(feasible=True, point=fallback.point, margin=0.0)
    return LPResult(feasible=True, point=point, margin=radius)
