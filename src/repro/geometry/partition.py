"""Partitioning of the angle coordinate space into cells (paper §5, Appendix A.2).

The approximation pipeline of §5 divides the ``(d-1)``-dimensional angle box
``[0, π/2]^{d-1}`` into ``N`` cells, assigns a satisfactory function to each
cell during preprocessing, and answers online queries by locating the query's
cell.  The paper's guarantee (Theorem 6) only needs the *angular diameter* of
every cell — the largest angle between two ranking functions that fall in the
same cell — to be bounded by a user-controllable value.

Two interchangeable partitions are provided:

* :class:`UniformGridPartition` — an equal-width grid in angle coordinates.
  Simple, constant-time cell location and neighbour enumeration; this is the
  default backend of the approximation pipeline.
* :class:`AnglePartition` — the paper's adaptive, (approximately) equal-area
  partitioning (Algorithm 12): the width of a cell along axis ``i`` grows as
  the prefix angles approach the pole where that axis sweeps a smaller circle,
  so every cell has (approximately) the same surface area on the unit sphere
  and the same angular-diameter bound ``γ`` per axis.

Both tile the box and have the same methods: ``n_cells``, ``cells``,
``cell``, ``locate``, ``locate_many``, ``neighbors`` and
``max_cell_diameter``.  Because the cells tile the box, each partition's
``neighbors`` graph is connected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.exceptions import ConfigurationError, GeometryError
from repro.geometry.angles import HALF_PI

__all__ = [
    "Cell",
    "UniformGridPartition",
    "AnglePartition",
    "cell_gamma",
    "theorem6_bound",
    "locate_cells",
]


def cell_gamma(n_cells: int, d: int) -> float:
    """Per-axis angular width ``γ`` for an equal-area partition into ``n_cells`` (Eq. 14).

    ``d`` is the number of scoring attributes (so the angle space has ``d-1``
    dimensions).  The value is clamped to ``π/2`` because a single cell cannot
    be wider than the whole axis.
    """
    if n_cells < 1:
        raise ConfigurationError("n_cells must be >= 1")
    if d < 2:
        raise ConfigurationError("d must be >= 2")
    area = (math.pi ** (d / 2.0)) / (n_cells * (2.0 ** (d - 1)) * math.gamma(d / 2.0))
    side = area ** (1.0 / (d - 1))
    gamma = 2.0 * math.asin(min(1.0, side / 2.0))
    return min(gamma, HALF_PI)


def theorem6_bound(n_cells: int, d: int) -> float:
    """Worst-case extra angular distance of the grid approximation (Theorem 6).

    The function returned by ``MDONLINE`` is within ``θ_opt + theorem6_bound``
    of the query, where ``θ_opt`` is the distance to the true closest
    satisfactory function.
    """
    if n_cells < 1:
        raise ConfigurationError("n_cells must be >= 1")
    if d < 2:
        raise ConfigurationError("d must be >= 2")
    area = (math.pi ** (d / 2.0)) / (n_cells * (2.0 ** (d - 1)) * math.gamma(d / 2.0))
    side = area ** (1.0 / (d - 1))
    argument = min(1.0, (math.sqrt(d - 1) / 2.0) * side)
    return 4.0 * math.asin(argument)


@dataclass(frozen=True)
class Cell:
    """One cell of a partition: an axis-aligned box in angle coordinates."""

    index: int
    low: tuple[float, ...]
    high: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.low)

    def center(self) -> np.ndarray:
        """Midpoint of the cell box."""
        return (np.asarray(self.low) + np.asarray(self.high)) / 2.0

    def contains(self, angles: np.ndarray, tolerance: float = 1e-12) -> bool:
        """Return True if the angle vector lies in the (closed) cell box."""
        angles = np.asarray(angles, dtype=float)
        return bool(
            np.all(angles >= np.asarray(self.low) - tolerance)
            and np.all(angles <= np.asarray(self.high) + tolerance)
        )

    def coordinate_extents(self) -> np.ndarray:
        """Per-axis widths of the cell box."""
        return np.asarray(self.high) - np.asarray(self.low)


class UniformGridPartition:
    """Equal-width grid over the angle box.

    Parameters
    ----------
    dimension:
        Dimension of the angle space (``d - 1``), at least 1.
    n_cells:
        Target total number of cells; the per-axis division count is
        ``ceil(n_cells ** (1 / dimension))`` so the actual number of cells is
        the smallest power of the division count that reaches the target.
    """

    def __init__(self, dimension: int, n_cells: int) -> None:
        if dimension < 1:
            raise ConfigurationError("dimension must be >= 1")
        if n_cells < 1:
            raise ConfigurationError("n_cells must be >= 1")
        self.dimension = dimension
        self.divisions = max(1, math.ceil(n_cells ** (1.0 / dimension) - 1e-9))
        self.step = HALF_PI / self.divisions
        self._cells: list[Cell] | None = None

    @property
    def n_cells(self) -> int:
        """Actual number of cells in the grid."""
        return self.divisions**self.dimension

    def _multi_index(self, flat_index: int) -> tuple[int, ...]:
        if not 0 <= flat_index < self.n_cells:
            raise GeometryError(f"cell index {flat_index} out of range")
        indices = []
        remainder = flat_index
        for _ in range(self.dimension):
            indices.append(remainder % self.divisions)
            remainder //= self.divisions
        return tuple(indices)

    def _flat_index(self, multi_index: Iterable[int]) -> int:
        flat = 0
        for axis, value in reversed(list(enumerate(multi_index))):
            if not 0 <= value < self.divisions:
                raise GeometryError("multi-index component out of range")
            flat = flat * self.divisions + value
        return flat

    def cells(self) -> list[Cell]:
        """All cells, indexed consistently with :meth:`locate`."""
        if self._cells is None:
            cells = []
            for flat_index in range(self.n_cells):
                multi = self._multi_index(flat_index)
                low = tuple(i * self.step for i in multi)
                high = tuple(min(HALF_PI, (i + 1) * self.step) for i in multi)
                cells.append(Cell(flat_index, low, high))
            self._cells = cells
        return self._cells

    def cell(self, index: int) -> Cell:
        """Return one cell by index."""
        return self.cells()[index]

    def locate(self, angles: np.ndarray) -> int:
        """Return the index of the cell containing the angle vector."""
        angles = np.asarray(angles, dtype=float)
        if angles.shape != (self.dimension,):
            raise GeometryError("angle vector dimension mismatch")
        if np.any(angles < -1e-9) or np.any(angles > HALF_PI + 1e-9):
            raise GeometryError("angle vector outside the legal box [0, π/2]^k")
        multi = tuple(
            min(self.divisions - 1, int(np.clip(value, 0.0, HALF_PI) / self.step))
            for value in angles
        )
        return self._flat_index(multi)

    def locate_many(self, angle_matrix: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`locate` for a ``(q, dimension)`` matrix of angle vectors.

        Row ``i`` of the result equals ``locate(angle_matrix[i])`` exactly:
        the per-axis clip/divide/truncate and the flat-index accumulation are
        the same integer arithmetic, evaluated for the whole batch at once.
        """
        matrix = np.asarray(angle_matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != self.dimension:
            raise GeometryError("locate_many expects a (q, dimension) angle matrix")
        if np.any(matrix < -1e-9) or np.any(matrix > HALF_PI + 1e-9):
            raise GeometryError("angle vector outside the legal box [0, π/2]^k")
        multi = np.minimum(
            self.divisions - 1,
            (np.clip(matrix, 0.0, HALF_PI) / self.step).astype(np.int64),
        )
        strides = self.divisions ** np.arange(self.dimension, dtype=np.int64)
        return multi @ strides

    def neighbors(self, index: int) -> list[int]:
        """Indices of cells adjacent along any axis (face neighbours)."""
        multi = self._multi_index(index)
        result = []
        for axis in range(self.dimension):
            for delta in (-1, 1):
                value = multi[axis] + delta
                if 0 <= value < self.divisions:
                    moved = list(multi)
                    moved[axis] = value
                    result.append(self._flat_index(moved))
        return result

    def max_cell_diameter(self) -> float:
        """Upper bound on the angular distance between two rays in the same cell.

        Changing one angle coordinate by ``δ`` moves the unit direction along a
        circle of radius at most 1, so the geodesic displacement is at most
        ``δ``; summing over axes bounds the diameter by ``dimension * step``.
        """
        return self.dimension * self.step


class _PartitionNode:
    """Internal node of the adaptive partition tree: sorted boundaries + children."""

    __slots__ = ("boundaries", "children")

    def __init__(self, boundaries: list[float], children: list) -> None:
        self.boundaries = boundaries
        self.children = children  # list of _PartitionNode or of cell indices (at leaves)


class AnglePartition:
    """Adaptive equal-area partitioning of the angle space (Algorithm 12).

    The axis-``i`` width of a cell is ``γ / ρ`` where ``ρ`` is the radius of the
    circle swept by axis ``i`` given the cell's prefix angles (``Π sin θ_l`` at
    the prefix upper corner), so that the arc length of every cell edge — and
    hence the per-axis contribution to the angular diameter — stays below the
    target ``γ`` of Eq. 14.  Cells near the pole therefore get wider coordinate
    ranges, mirroring the paper's equal-area construction.

    Parameters
    ----------
    dimension:
        Dimension of the angle space (``d - 1``).
    n_cells:
        Target cell count used to derive ``γ``; the realised count is close to
        but not exactly ``n_cells`` (as in the paper).
    """

    _MIN_RADIUS = 1e-3

    def __init__(self, dimension: int, n_cells: int) -> None:
        if dimension < 1:
            raise ConfigurationError("dimension must be >= 1")
        if n_cells < 1:
            raise ConfigurationError("n_cells must be >= 1")
        self.dimension = dimension
        self.target_cells = n_cells
        self.gamma = cell_gamma(n_cells, dimension + 1)
        self._cells: list[Cell] = []
        self._root = self._build(prefix_high=(), level=0, prefix_low=())
        self._neighbor_cache: dict[int, list[int]] | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _axis_step(self, prefix_high: tuple[float, ...]) -> float:
        radius = 1.0
        for angle in prefix_high:
            radius *= math.sin(angle)
        radius = max(radius, self._MIN_RADIUS)
        return min(HALF_PI, self.gamma / radius)

    def _build(
        self, prefix_low: tuple[float, ...], prefix_high: tuple[float, ...], level: int
    ) -> _PartitionNode:
        step = self._axis_step(prefix_high)
        boundaries = [0.0]
        while boundaries[-1] < HALF_PI - 1e-12:
            boundaries.append(min(HALF_PI, boundaries[-1] + step))
        children: list = []
        for low, high in zip(boundaries[:-1], boundaries[1:]):
            if level == self.dimension - 1:
                index = len(self._cells)
                self._cells.append(
                    Cell(index, prefix_low + (low,), prefix_high + (high,))
                )
                children.append(index)
            else:
                children.append(
                    self._build(prefix_low + (low,), prefix_high + (high,), level + 1)
                )
        return _PartitionNode(boundaries, children)

    # ------------------------------------------------------------------ #
    # protocol
    # ------------------------------------------------------------------ #
    @property
    def n_cells(self) -> int:
        """Realised number of cells."""
        return len(self._cells)

    def cells(self) -> list[Cell]:
        """All cells in creation order (consistent with :meth:`locate`)."""
        return list(self._cells)

    def cell(self, index: int) -> Cell:
        """Return one cell by index."""
        if not 0 <= index < self.n_cells:
            raise GeometryError(f"cell index {index} out of range")
        return self._cells[index]

    def locate(self, angles: np.ndarray) -> int:
        """Find the cell containing ``angles`` by binary search level by level."""
        angles = np.asarray(angles, dtype=float)
        if angles.shape != (self.dimension,):
            raise GeometryError("angle vector dimension mismatch")
        if np.any(angles < -1e-9) or np.any(angles > HALF_PI + 1e-9):
            raise GeometryError("angle vector outside the legal box [0, π/2]^k")
        node: _PartitionNode | int = self._root
        for level in range(self.dimension):
            if not isinstance(node, _PartitionNode):
                raise GeometryError(
                    f"partition tree truncated at level {level}: expected an "
                    "internal node, found a leaf (corrupted construction)"
                )
            value = float(np.clip(angles[level], 0.0, HALF_PI))
            position = int(np.searchsorted(node.boundaries, value, side="right")) - 1
            position = min(max(position, 0), len(node.children) - 1)
            node = node.children[position]
        if not isinstance(node, int):
            raise GeometryError(
                f"partition tree deeper than its dimension {self.dimension}: "
                "descent ended on an internal node (corrupted construction)"
            )
        return node

    def locate_many(self, angle_matrix: np.ndarray) -> np.ndarray:
        """:meth:`locate` for every row of a ``(q, dimension)`` matrix of angle vectors."""
        matrix = np.asarray(angle_matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != self.dimension:
            raise GeometryError("locate_many expects a (q, dimension) angle matrix")
        return np.array([self.locate(row) for row in matrix], dtype=np.int64)

    def neighbors(self, index: int) -> list[int]:
        """Cells whose boxes touch the given cell's box (computed once, then cached)."""
        if self._neighbor_cache is None:
            self._neighbor_cache = self._build_neighbor_cache()
        return self._neighbor_cache.get(index, [])

    def _build_neighbor_cache(self) -> dict[int, list[int]]:
        lows = np.asarray([cell.low for cell in self._cells])
        highs = np.asarray([cell.high for cell in self._cells])
        cache: dict[int, list[int]] = {index: [] for index in range(self.n_cells)}
        tolerance = 1e-9
        for index in range(self.n_cells):
            touching = np.all(
                (lows[index] <= highs + tolerance) & (lows <= highs[index] + tolerance), axis=1
            )
            touching[index] = False
            cache[index] = np.flatnonzero(touching).tolist()
        return cache

    def max_cell_diameter(self) -> float:
        """Angular diameter bound: each axis contributes at most ``γ`` of arc."""
        return self.dimension * self.gamma


def locate_cells(
    partition: UniformGridPartition | AnglePartition, angle_matrix: np.ndarray
) -> np.ndarray:
    """Locate every row of a ``(q, dimension)`` angle matrix in one call.

    Row ``i`` equals ``partition.locate(angle_matrix[i])``.  The engine's
    batched lookup calls this module-level name once per batch, so a test or
    a profiler can wrap it in one place.
    """
    return partition.locate_many(angle_matrix)
