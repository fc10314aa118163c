"""Assignment of exchange hyperplanes to the grid cells they cross (``CELLPLANE×``).

Section 5.1 of the paper observes that only the hyperplanes passing through a
cell can change the ordering inside it, so per-cell arrangements can be built
from a (usually small) subset of the full hyperplane set.  ``CELLPLANE×``
(Algorithm 7) finds those subsets by recursively halving the angle box and
pruning any sub-box the hyperplane misses — the box test is the corner test
implemented by :meth:`repro.geometry.hyperplane.Hyperplane.crosses_box`.

:func:`assign_hyperplanes_to_cells` reproduces that hierarchical pruning over
an arbitrary partition (uniform grid or adaptive), and
:func:`hyperplanes_through_cell` is the direct per-cell filter used in tests
as the brute-force reference.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GeometryError
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.partition import AnglePartitionProtocol, Cell

__all__ = [
    "assign_hyperplanes_to_cells",
    "hyperplanes_through_cell",
    "CellPlaneIndex",
]


def hyperplanes_through_cell(cell: Cell, hyperplanes: list[Hyperplane]) -> list[int]:
    """Return indices of the hyperplanes that cross one cell (brute-force reference)."""
    low = np.asarray(cell.low)
    high = np.asarray(cell.high)
    return [
        index
        for index, hyperplane in enumerate(hyperplanes)
        if hyperplane.crosses_box(low, high)
    ]


class CellPlaneIndex:
    """Per-cell lists of crossing hyperplanes, as produced by ``CELLPLANE×``.

    Attributes
    ----------
    by_cell:
        ``by_cell[cell_index]`` is the list of hyperplane indices crossing it.
    box_tests:
        Number of hyperplane-box intersection tests performed (the quantity the
        hierarchical pruning is designed to reduce; reported in benchmarks).
    """

    def __init__(self, n_cells: int) -> None:
        self.by_cell: list[list[int]] = [[] for _ in range(n_cells)]
        self.box_tests: int = 0

    def add(self, cell_index: int, hyperplane_index: int) -> None:
        self.by_cell[cell_index].append(hyperplane_index)

    def counts(self) -> np.ndarray:
        """Number of hyperplanes crossing each cell (the series of paper Fig. 21)."""
        return np.asarray([len(entry) for entry in self.by_cell], dtype=int)


def _recurse(
    hyperplane: Hyperplane,
    hyperplane_index: int,
    cells: list[Cell],
    cell_indices: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    index: CellPlaneIndex,
) -> None:
    """Recursive divide-and-prune over a group of cells with a shared bounding box."""
    bounding_low = lows.min(axis=0)
    bounding_high = highs.max(axis=0)
    index.box_tests += 1
    if not hyperplane.crosses_box(bounding_low, bounding_high):
        return
    if cell_indices.size == 1:
        index.add(int(cell_indices[0]), hyperplane_index)
        return
    # Split the group of cells in half along the axis with the widest bounding
    # extent, mirroring the round-robin halving of Algorithm 7 while staying
    # agnostic to how the partition generated the cells.
    extents = bounding_high - bounding_low
    axis = int(np.argmax(extents))
    order = np.argsort(lows[:, axis], kind="stable")
    half = order.size // 2
    for chunk in (order[:half], order[half:]):
        if chunk.size == 0:
            continue
        _recurse(
            hyperplane,
            hyperplane_index,
            cells,
            cell_indices[chunk],
            lows[chunk],
            highs[chunk],
            index,
        )


def assign_hyperplanes_to_cells(
    partition: AnglePartitionProtocol, hyperplanes: list[Hyperplane]
) -> CellPlaneIndex:
    """Compute, for every cell, the hyperplanes passing through it (``CELLPLANE×``).

    Parameters
    ----------
    partition:
        Any partition implementing the common protocol (uniform or adaptive).
    hyperplanes:
        Exchange hyperplanes in angle space.

    Returns
    -------
    CellPlaneIndex
        Per-cell hyperplane lists plus the number of box tests performed.
    """
    cells = partition.cells()
    if not cells:
        raise GeometryError("partition has no cells")
    for hyperplane in hyperplanes:
        if hyperplane.dimension != partition.dimension:
            raise GeometryError("hyperplane dimension does not match the partition")
    index = CellPlaneIndex(len(cells))
    lows = np.asarray([cell.low for cell in cells], dtype=float)
    highs = np.asarray([cell.high for cell in cells], dtype=float)
    cell_indices = np.arange(len(cells))
    for hyperplane_index, hyperplane in enumerate(hyperplanes):
        _recurse(hyperplane, hyperplane_index, cells, cell_indices, lows, highs, index)
    return index

