"""Brute-force ground truth from the paper's definitions, for small inputs.

2-D (§3): two items exchange order at one angle exactly when neither
dominates the other, that is when their score differences have strictly
opposite signs.  The exchange angles cut ``[0, π/2]`` into sectors; every
function inside a sector induces the same ordering, so the sector's label is
the raw oracle's verdict on the ordering the function at its midpoint
induces.  The angles are compared as exact rationals (``tan θ = |Δx| / |Δy|``
over the exact binary values of the scores), so tied and collinear inputs
need no tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.data.dataset import Dataset
from repro.fairness.oracle import FairnessOracle
from repro.ranking.scoring import LinearScoringFunction


def exchange_angles_2d(dataset: Dataset) -> list[float]:
    """The distinct angles at which some pair of items exchanges order, ascending."""
    rows = [(Fraction(x), Fraction(y)) for x, y in dataset.scores.tolist()]
    slopes = {
        abs(first[0] - second[0]) / abs(first[1] - second[1])
        for position, first in enumerate(rows)
        for second in rows[position + 1 :]
        if (first[0] - second[0]) * (first[1] - second[1]) < 0
    }
    return [math.atan(slope) for slope in sorted(slopes)]


def sector_labels_2d(dataset: Dataset, oracle: FairnessOracle) -> list[tuple[float, bool]]:
    """``(midpoint, verdict)`` of every sector, judged by the raw oracle."""
    bounds = [0.0, *exchange_angles_2d(dataset), math.pi / 2]
    labels = []
    for start, end in zip(bounds[:-1], bounds[1:]):
        middle = 0.5 * (start + end)
        ordering = LinearScoringFunction((math.cos(middle), math.sin(middle))).order(dataset)
        labels.append((middle, bool(oracle.is_satisfactory(ordering, dataset))))
    return labels


def wrong_sectors_2d(index, dataset: Dataset, oracle: FairnessOracle) -> list[float]:
    """Midpoints of the sectors a 2-D index labels differently from the ground truth."""
    return [
        middle
        for middle, verdict in sector_labels_2d(dataset, oracle)
        if index.is_satisfactory_angle(middle) != verdict
    ]
