"""Angle coordinate system for linear ranking functions.

A linear scoring function with non-negative weights is a ray from the origin
in :math:`R^d`; two weight vectors that are positive scalings of each other
induce the same ordering, so the natural space of ranking functions is the set
of *directions* in the first orthant.  The paper (§4.1, Appendix A.1)
parameterises directions by ``d-1`` angles, each in ``[0, π/2]``.

This module implements that parameterisation with standard hyperspherical
coordinates:

.. math::

   w_1 &= r\\,\\cos θ_1 \\\\
   w_2 &= r\\,\\sin θ_1 \\cos θ_2 \\\\
   &\\;\\;\\vdots \\\\
   w_{d-1} &= r\\,\\sin θ_1 \\cdots \\sin θ_{d-2} \\cos θ_{d-1} \\\\
   w_d &= r\\,\\sin θ_1 \\cdots \\sin θ_{d-2} \\sin θ_{d-1}

For ``d = 2`` this reduces to the paper's §3 convention, ``θ = arctan(w_2/w_1)``,
the angle of the ray with the x-axis.  All conversions below are exact inverses
of each other on the first orthant, and the angular distance between two rays
is the arc-cosine of the cosine similarity of their weight vectors (paper
Eq. 9–10).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import GeometryError

__all__ = [
    "HALF_PI",
    "to_angles",
    "to_angles_many",
    "to_weights",
    "to_weights_many",
    "angular_distance",
    "angular_distance_angles",
    "checked_ray",
    "ray_distance",
    "is_first_orthant_direction",
    "clamp_angles",
]

#: Upper bound of every angle coordinate (the first orthant spans [0, π/2]).
HALF_PI: float = math.pi / 2.0


def is_first_orthant_direction(weights: np.ndarray) -> bool:
    """Return True if ``weights`` is a usable direction: non-negative, finite, not all zero."""
    weights = np.asarray(weights, dtype=float)
    return bool(
        weights.ndim == 1
        and weights.size >= 1
        and np.all(np.isfinite(weights))
        and np.all(weights >= 0)
        and np.any(weights > 0)
    )


def to_angles(weights: np.ndarray) -> np.ndarray:
    """Convert a weight vector to its ``d-1`` hyperspherical angles.

    Parameters
    ----------
    weights:
        Non-negative weight vector of length ``d >= 2`` with at least one
        positive entry.  The magnitude is irrelevant (a ray is scale free).

    Returns
    -------
    numpy.ndarray
        Angle vector ``Θ`` of length ``d - 1`` with every entry in ``[0, π/2]``.

    Raises
    ------
    GeometryError
        If the weights are negative, all zero, non-finite, or shorter than 2.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size < 2:
        raise GeometryError("to_angles expects a 1-D weight vector of length >= 2")
    if not is_first_orthant_direction(weights):
        raise GeometryError(
            "weights must be finite, non-negative and not all zero to define a ray"
        )
    d = weights.size
    angles = np.empty(d - 1, dtype=float)
    # tail[k] = sqrt(w_{k+1}^2 + ... + w_d^2)
    tail = np.sqrt(np.cumsum(weights[::-1] ** 2)[::-1])
    # np.arctan2 (not math.atan2, whose bits can differ) so the scalar path is
    # bit-identical to the row-wise kernel in to_angles_many.
    for k in range(d - 2):
        angles[k] = np.arctan2(tail[k + 1], weights[k])
    angles[d - 2] = np.arctan2(weights[d - 1], weights[d - 2])
    return clamp_angles(angles)


def to_angles_many(weight_matrix: np.ndarray) -> np.ndarray:
    """Convert a stack of weight vectors to their hyperspherical angles at once.

    The batched counterpart of :func:`to_angles`: row ``k`` of the result is
    bit-identical to ``to_angles(weight_matrix[k])``.  Both paths share the
    same primitives (``np.cumsum`` of the reversed squares, ``np.sqrt``,
    ``np.arctan2``, ``np.clip``) applied in the same order, which is what makes
    the batched exchange-hyperplane construction reproduce the scalar one
    exactly.

    Parameters
    ----------
    weight_matrix:
        ``(m, d)`` matrix of non-negative weight vectors, each with at least
        one positive entry, ``d >= 2``.

    Returns
    -------
    numpy.ndarray
        ``(m, d - 1)`` matrix of angle vectors, every entry in ``[0, π/2]``.

    Raises
    ------
    GeometryError
        If the matrix is not 2-D, has fewer than 2 columns, or any row fails
        the first-orthant-direction requirements of :func:`to_angles`.
    """
    weight_matrix = np.asarray(weight_matrix, dtype=float)
    if weight_matrix.ndim != 2 or weight_matrix.shape[1] < 2:
        raise GeometryError("to_angles_many expects an (m, d) weight matrix with d >= 2")
    if not (
        np.all(np.isfinite(weight_matrix))
        and np.all(weight_matrix >= 0)
        and np.all(np.any(weight_matrix > 0, axis=1))
    ):
        raise GeometryError(
            "every row must be finite, non-negative and not all zero to define a ray"
        )
    d = weight_matrix.shape[1]
    # tail[:, k] = sqrt(w_{k+1}^2 + ... + w_d^2), exactly as in to_angles.
    tail = np.sqrt(np.cumsum(weight_matrix[:, ::-1] ** 2, axis=1)[:, ::-1])
    angles = np.empty((weight_matrix.shape[0], d - 1), dtype=float)
    if d > 2:
        angles[:, : d - 2] = np.arctan2(tail[:, 1 : d - 1], weight_matrix[:, : d - 2])
    angles[:, d - 2] = np.arctan2(weight_matrix[:, d - 1], weight_matrix[:, d - 2])
    return clamp_angles(angles)


def to_weights(angles: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Convert an angle vector back to a weight vector of the given magnitude.

    This is the exact inverse of :func:`to_angles` (up to scaling): for any
    first-orthant direction ``w``, ``to_weights(to_angles(w))`` is the unit
    vector along ``w``.  It is the one-row case of :func:`to_weights_many`.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1 or angles.size < 1:
        raise GeometryError("to_weights expects a 1-D angle vector of length >= 1")
    return to_weights_many(angles[None, :], radius)[0]


def to_weights_many(angle_matrix: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Convert a stack of angle vectors to weight vectors of the given magnitude.

    Row ``k`` of the result is ``to_weights(angle_matrix[k], radius)``.  The
    sines and cosines come from ``math.sin`` / ``math.cos`` element by
    element (NumPy's trigonometric kernels depend on the CPU and can round
    differently), and each row's sine prefixes are left-to-right products.

    Parameters
    ----------
    angle_matrix:
        ``(m, d - 1)`` matrix of finite angle vectors, ``d >= 2``.
    radius:
        Positive magnitude of every returned weight vector.

    Returns
    -------
    numpy.ndarray
        ``(m, d)`` matrix of non-negative weight vectors.

    Raises
    ------
    GeometryError
        If the matrix is not 2-D with at least one column, any angle is not
        finite, or the radius is not positive.
    """
    angle_matrix = np.asarray(angle_matrix, dtype=float)
    if angle_matrix.ndim != 2 or angle_matrix.shape[1] < 1:
        raise GeometryError("to_weights_many expects an (m, d - 1) angle matrix with d >= 2")
    if not np.isfinite(angle_matrix).all():
        raise GeometryError("angles must be finite")
    if radius <= 0:
        raise GeometryError("radius must be positive")
    flat = []
    for angles in angle_matrix.tolist():
        sin_prefix = 1.0
        for angle in angles:
            flat.append(sin_prefix * math.cos(angle))
            sin_prefix *= math.sin(angle)
        flat.append(sin_prefix)
    m, width = angle_matrix.shape
    weights = np.array(flat, dtype=float).reshape(m, width + 1)
    # Numerical noise can produce tiny negatives for angles at the boundary.
    return radius * np.clip(weights, 0.0, None)


def angular_distance(first: np.ndarray, second: np.ndarray) -> float:
    """Angular distance (radians) between the rays of two weight vectors.

    This is ``arccos`` of the cosine similarity (paper Appendix A.1) and is a
    metric on directions: it is zero iff one vector is a positive scaling of
    the other, symmetric, and satisfies the triangle inequality on the sphere.
    """
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.shape != second.shape:
        raise GeometryError("angular_distance requires vectors of equal dimension")
    return ray_distance(checked_ray(first), checked_ray(second))


def checked_ray(weights: np.ndarray) -> tuple[np.ndarray, np.floating]:
    """A weight vector and its norm, once checked to be a first-orthant direction.

    The operand of :func:`ray_distance`: a caller that measures many distances
    from the same vectors checks and normalises each of them only once.
    """
    if not is_first_orthant_direction(weights):
        raise GeometryError("angular_distance requires valid first-orthant directions")
    return weights, np.linalg.norm(weights)


def ray_distance(
    first: tuple[np.ndarray, np.floating], second: tuple[np.ndarray, np.floating]
) -> float:
    """:func:`angular_distance` between two :func:`checked_ray` operands."""
    (first_weights, first_norm), (second_weights, second_norm) = first, second
    cosine = float(np.dot(first_weights, second_weights) / (first_norm * second_norm))
    cosine = min(1.0, max(-1.0, cosine))
    return math.acos(cosine)


def angular_distance_angles(first_angles: np.ndarray, second_angles: np.ndarray) -> float:
    """Angular distance between two rays given by their angle vectors."""
    return angular_distance(to_weights(first_angles), to_weights(second_angles))


def clamp_angles(angles: np.ndarray) -> np.ndarray:
    """Clamp an angle vector into the legal box ``[0, π/2]^(d-1)``.

    Used to absorb floating-point drift at the boundary of the first orthant.
    """
    return np.clip(np.asarray(angles, dtype=float), 0.0, HALF_PI)
