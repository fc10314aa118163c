"""Computational-geometry substrate: angles, dual space, arrangements, partitions.

This package contains everything the paper's algorithms need from
combinatorial geometry — the angle coordinate system for ranking functions,
the dual-space ordering exchanges and their ``HYPERPOLAR`` image in angle
space, hyperplane / half-space / region primitives backed by linear
programming, the incremental arrangement and the arrangement tree, the angle
space partitions of §5, and the cell-hyperplane assignment of ``CELLPLANE×``.
"""

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
from repro.geometry.arrangement import Arrangement
from repro.geometry.arrangement_tree import ArrangementTree, ArrangementTreeNode
from repro.geometry.cellplane import (
    CellPlaneIndex,
    assign_hyperplanes_to_cells,
    hyperplanes_through_cell,
)
from repro.geometry.dual import (
    exchange_angle_2d,
    exchange_normal,
    has_exchange,
    hyperplanes_for_dataset,
    hyperpolar,
    hyperpolar_many,
)
from repro.geometry.hyperplane import HalfSpace, Hyperplane, Region, angle_box_bounds
from repro.geometry.lp import LPResult, chebyshev_center, feasible_point, is_feasible
from repro.geometry.partition import (
    AnglePartition,
    Cell,
    UniformGridPartition,
    cell_gamma,
    theorem6_bound,
)

__all__ = [
    "HALF_PI",
    "to_angles",
    "to_angles_many",
    "to_weights",
    "to_weights_many",
    "angular_distance",
    "angular_distance_angles",
    "clamp_angles",
    "is_first_orthant_direction",
    "Arrangement",
    "ArrangementTree",
    "ArrangementTreeNode",
    "CellPlaneIndex",
    "assign_hyperplanes_to_cells",
    "hyperplanes_through_cell",
    "exchange_normal",
    "exchange_angle_2d",
    "has_exchange",
    "hyperpolar",
    "hyperpolar_many",
    "hyperplanes_for_dataset",
    "Hyperplane",
    "HalfSpace",
    "Region",
    "angle_box_bounds",
    "LPResult",
    "feasible_point",
    "chebyshev_center",
    "is_feasible",
    "Cell",
    "UniformGridPartition",
    "AnglePartition",
    "cell_gamma",
    "theorem6_bound",
]
