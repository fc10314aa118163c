"""Assignment of exchange hyperplanes to the grid cells they cross (``CELLPLANE×``).

Section 5.1 of the paper observes that only the hyperplanes passing through a
cell can change the ordering inside it, so per-cell arrangements can be built
from a (usually small) subset of the full hyperplane set.  ``CELLPLANE×``
(Algorithm 7) finds those subsets by recursively halving the angle box and
pruning any sub-box the hyperplane misses; the box test is the corner test
implemented by :meth:`repro.geometry.hyperplane.Hyperplane.crosses_box`.

:func:`assign_hyperplanes_to_cells` runs that corner test, with the same
arithmetic, on every (hyperplane, cell) pair at once in numpy blocks.  The
corner test is monotone under box inclusion: a box's corner minimum is no
larger, and its maximum no smaller, than those of any box inside it, even in
floating point, because every product and every sum rounds monotonically.
So the halving prunes no box that holds a crossed cell, and testing every
cell directly yields exactly the recursion's lists, in the same order.
:func:`hyperplanes_through_cell` is the scalar per-cell filter the tests use
as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import GeometryError
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.partition import AnglePartition, Cell, UniformGridPartition

__all__ = [
    "assign_hyperplanes_to_cells",
    "hyperplanes_through_cell",
    "CellPlaneIndex",
]

#: Elements of one (hyperplane, cell, axis) temporary of the blocked corner
#: test: 2**17 float64 values are 1 MB, and a block holds about five of them.
_BLOCK_ELEMENTS = 1 << 17


def hyperplanes_through_cell(cell: Cell, hyperplanes: list[Hyperplane]) -> list[int]:
    """Return indices of the hyperplanes that cross one cell (scalar reference)."""
    low = np.asarray(cell.low)
    high = np.asarray(cell.high)
    return [
        index
        for index, hyperplane in enumerate(hyperplanes)
        if hyperplane.crosses_box(low, high)
    ]


@dataclass
class CellPlaneIndex:
    """Per-cell lists of crossing hyperplanes, as produced by ``CELLPLANE×``.

    ``by_cell[cell_index]`` lists the indices of the hyperplanes crossing that
    cell, in increasing order.
    """

    by_cell: list[list[int]]

    def counts(self) -> np.ndarray:
        """Number of hyperplanes crossing each cell (the series of paper Fig. 21)."""
        return np.asarray([len(entry) for entry in self.by_cell], dtype=int)


def _crossing_pairs(
    coefficients: np.ndarray, lows: np.ndarray, highs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(hyperplane, cell)`` index pairs of one block whose corner test passes.

    The arithmetic of :meth:`Hyperplane.crosses_box`, broadcast over a
    ``(hyperplanes, cells, axes)`` stack and summed over its last axis, which
    numpy reduces per row exactly as it reduces one coefficient vector.
    """
    stacked = coefficients[:, None, :]
    positive = stacked >= 0
    at_low, at_high = stacked * lows, stacked * highs
    minimum = np.sum(np.where(positive, at_low, at_high), axis=-1)
    maximum = np.sum(np.where(positive, at_high, at_low), axis=-1)
    return np.nonzero((minimum <= 1.0) & (1.0 <= maximum))


def assign_hyperplanes_to_cells(
    partition: UniformGridPartition | AnglePartition, hyperplanes: list[Hyperplane]
) -> CellPlaneIndex:
    """Compute, for every cell, the hyperplanes passing through it (``CELLPLANE×``).

    Parameters
    ----------
    partition:
        The uniform grid or the adaptive partition.
    hyperplanes:
        Exchange hyperplanes in angle space.

    Returns
    -------
    CellPlaneIndex
        The crossing hyperplanes of every cell, equal to
        :func:`hyperplanes_through_cell` on each cell.
    """
    cells = partition.cells()
    if not cells:
        raise GeometryError("partition has no cells")
    for hyperplane in hyperplanes:
        if hyperplane.dimension != partition.dimension:
            raise GeometryError("hyperplane dimension does not match the partition")
    lows = np.asarray([cell.low for cell in cells], dtype=float)
    highs = np.asarray([cell.high for cell in cells], dtype=float)
    coefficients = np.asarray(
        [hyperplane.coefficients for hyperplane in hyperplanes], dtype=float
    ).reshape(-1, partition.dimension)
    block = max(1, _BLOCK_ELEMENTS // lows.size)
    plane_parts = [np.empty(0, dtype=np.intp)]
    cell_parts = [np.empty(0, dtype=np.intp)]
    for start in range(0, len(hyperplanes), block):
        planes, crossed = _crossing_pairs(coefficients[start : start + block], lows, highs)
        plane_parts.append(planes + start)
        cell_parts.append(crossed)
    # Pairs arrive in increasing hyperplane order; a stable sort by cell keeps
    # that order inside each cell's list.
    cell_of_pair = np.concatenate(cell_parts)
    planes = np.concatenate(plane_parts)[np.argsort(cell_of_pair, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(cell_of_pair, minlength=len(cells))).tolist()
    return CellPlaneIndex([planes[start:end] for start, end in zip([0, *ends], ends)])
