"""The scalar reference for :func:`repro.geometry.angles.to_weights_many`.

The production function converts a whole stack of angle vectors in one pass
and :func:`~repro.geometry.angles.to_weights` is its one-row case; this loop
converts one vector element by element, as ``to_weights`` did before it
became that one-row case.  Tests compare the two by ``float.hex``: every row
of the production function must reproduce this reference bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["to_weights_loop"]


def to_weights_loop(angles: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """One angle vector to a weight vector: ``math.cos`` / ``math.sin`` per element."""
    angles = np.asarray(angles, dtype=float)
    d = angles.size + 1
    weights = np.empty(d, dtype=float)
    sin_prefix = 1.0
    for k in range(d - 1):
        weights[k] = sin_prefix * math.cos(angles[k])
        sin_prefix *= math.sin(angles[k])
    weights[d - 1] = sin_prefix
    weights = np.clip(weights, 0.0, None)
    return radius * weights
