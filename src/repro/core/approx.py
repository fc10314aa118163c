"""The grid-based approximation pipeline of §5.

The exact ``MDBASELINE`` is too slow for interactive use because each query
solves one non-linear program per satisfactory region.  The paper's
approximation partitions the angle space into ``N`` cells and, during
preprocessing, assigns one satisfactory function to *every* cell:

1. ``CELLPLANE×`` (Algorithm 7) finds, for every cell, the exchange
   hyperplanes passing through it;
2. ``MARKCELL`` (Algorithm 8) searches each crossed cell for a satisfactory
   function, building only the local arrangement of the crossing hyperplanes
   and stopping early as soon as one satisfactory region is found
   (``ATC+``, Algorithm 9);
3. ``CELLCOLORING`` (Algorithm 10) propagates the discovered functions to the
   remaining cells with a Dijkstra pass over the cell-adjacency graph, so each
   uncovered cell is assigned the nearest discovered satisfactory function.
   Both partitions tile the angle box, so that graph is connected and every
   cell ends up assigned — or none is, when ``MARKCELL`` marked no cell;
4. ``MDONLINE`` (Algorithm 11) answers a query by locating its cell and
   returning the assigned function — with the Theorem 6 guarantee that the
   answer is within a user-controllable angle of the optimum.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.core.multi_dim import exchange_hyperplanes
from repro.core.result import SuggestionResult
from repro.data.dataset import Dataset
from repro.exceptions import (
    ConfigurationError,
    GeometryError,
    InfeasibleRegionError,
    NoSatisfactoryFunctionError,
    NotPreprocessedError,
)
from repro.fairness.oracle import FairnessOracle
from repro.geometry.angles import (
    angular_distance_angles,
    to_angles,
    to_weights,
    to_weights_many,
)
from repro.geometry.arrangement_tree import ArrangementTree
from repro.geometry.cellplane import assign_hyperplanes_to_cells
from repro.geometry.hyperplane import Hyperplane, Region
from repro.obs.trace import stage_span
from repro.geometry.partition import (
    AnglePartition,
    Cell,
    UniformGridPartition,
    theorem6_bound,
)
from repro.ranking.scoring import LinearScoringFunction

__all__ = [
    "MDApproxIndex",
    "ApproximatePreprocessor",
    "md_online",
    "md_online_lookup",
]


@dataclass
class MDApproxIndex:
    """The per-cell index produced by the approximate preprocessing pipeline.

    ``assigned_angles[c]`` is the angle vector of the satisfactory function
    assigned to cell ``c``.  Either every cell has one, or every entry is
    ``None`` (the constraint is unsatisfiable everywhere): ``CELLCOLORING``
    spreads a function over the connected cell-adjacency graph, and the
    loader refuses a payload with only some cells assigned.  ``marked``
    flags the cells whose function was found inside the cell itself (before
    colouring).  The index holds geometry only: ``MDONLINE`` takes the
    dataset and the oracle from its caller.
    """

    partition: UniformGridPartition | AnglePartition
    assigned_angles: list[np.ndarray | None] = field(default_factory=list)
    marked: list[bool] = field(default_factory=list)
    n_hyperplanes: int = 0
    oracle_calls: int = 0
    #: Lazily built unit weight rows and row norms of every cell's assigned
    #: function, read by the batched lookup.
    _cell_weights_cache: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_cells(self) -> int:
        """Number of cells in the partition."""
        return self.partition.n_cells

    @property
    def n_attributes(self) -> int:
        """Number of scoring attributes: one more than the angle space's dimension."""
        return self.partition.dimension + 1

    @property
    def n_marked_cells(self) -> int:
        """Number of cells in which a satisfactory function was found directly."""
        return sum(self.marked)

    @property
    def has_satisfactory_function(self) -> bool:
        """True if any cell carries a satisfactory function."""
        return any(angles is not None for angles in self.assigned_angles)

    def approximation_bound(self) -> float:
        """Theorem 6 bound on the extra angular distance of the returned answers."""
        return theorem6_bound(self.n_cells, self.n_attributes)

    def _cell_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Every cell's assigned function as ``(unit weight rows, row norms)``.

        Row ``c`` is ``to_weights(assigned_angles[c])`` and its norm is
        ``np.linalg.norm`` of that row, so the batched lookup gathers exactly
        the numbers the scalar :func:`md_online_lookup` computes.  Built on
        the first call and cached; a changed ``assigned_angles`` needs a
        fresh index (which is what every preprocess and load path makes).
        """
        if self._cell_weights_cache is None:
            weights = to_weights_many(
                np.asarray(self.assigned_angles, dtype=float).reshape(
                    self.n_cells, self.partition.dimension
                )
            )
            norms = np.asarray([float(np.linalg.norm(row)) for row in weights])
            self._cell_weights_cache = (weights, norms)
        return self._cell_weights_cache


class ApproximatePreprocessor:
    """Offline preprocessing for the approximate pipeline (§5.1–5.2).

    Parameters
    ----------
    dataset:
        Dataset with ``d >= 3`` scoring attributes.
    oracle:
        Fairness oracle labelling orderings.
    n_cells:
        Target number of cells ``N`` of the angle-space partition.
    partition:
        ``"uniform"`` for the equal-width grid (default) or ``"angle"`` for the
        paper's adaptive equal-area partition.
    max_hyperplanes:
        Optional cap on the number of exchange hyperplanes (useful for sweeps).
    convex_layer_k:
        Optional §8 convex-layer filter for top-``k`` oracles.
    preprocess_workers:
        Worker processes for the hyperplane construction (``1`` = serial;
        see :func:`~repro.core.multi_dim.exchange_hyperplanes`).
    """

    def __init__(
        self,
        dataset: Dataset,
        oracle: FairnessOracle,
        n_cells: int = 1024,
        partition: str = "uniform",
        max_hyperplanes: int | None = None,
        convex_layer_k: int | None = None,
        preprocess_workers: int = 1,
    ) -> None:
        if dataset.n_attributes < 3:
            raise GeometryError(
                "ApproximatePreprocessor requires d >= 3; use TwoDRaySweep for d = 2"
            )
        if n_cells < 1:
            raise ConfigurationError("n_cells must be >= 1")
        self.dataset = dataset
        self.oracle = oracle
        self.n_cells = n_cells
        self.max_hyperplanes = max_hyperplanes
        self.convex_layer_k = convex_layer_k
        self.preprocess_workers = preprocess_workers
        dimension = dataset.n_attributes - 1
        if partition == "uniform":
            self.partition: UniformGridPartition | AnglePartition = UniformGridPartition(
                dimension, n_cells
            )
        elif partition == "angle":
            self.partition = AnglePartition(dimension, n_cells)
        else:
            raise ConfigurationError(
                f"partition must be 'uniform' or 'angle', got {partition!r}"
            )

    # ------------------------------------------------------------------ #
    # pipeline steps
    # ------------------------------------------------------------------ #
    def run(self) -> MDApproxIndex:
        """Execute the full preprocessing pipeline and return the cell index.

        Each of the four stages runs under its own stage span.
        """
        index = MDApproxIndex(partition=self.partition)

        with stage_span("preprocess.hyperplane_construction") as span:
            hyperplanes = exchange_hyperplanes(
                self.dataset,
                max_hyperplanes=self.max_hyperplanes,
                convex_layer_k=self.convex_layer_k,
                preprocess_workers=self.preprocess_workers,
            )
            if span is not None:
                span.set("n_hyperplanes", len(hyperplanes))
        index.n_hyperplanes = len(hyperplanes)

        with stage_span("preprocess.cell_plane_assignment"):
            by_cell = assign_hyperplanes_to_cells(self.partition, hyperplanes).by_cell

        with stage_span("preprocess.mark_cells") as span:
            assigned, marked, oracle_calls = self._mark_cells(hyperplanes, by_cell)
            if span is not None:
                span.set("oracle_calls", int(oracle_calls))
        index.assigned_angles = assigned
        index.marked = marked
        index.oracle_calls += oracle_calls

        with stage_span("preprocess.cell_coloring"):
            self._color_cells(index)
        return index

    # ------------------------------------------------------------------ #
    # MARKCELL (Algorithm 8) + ATC+ (Algorithm 9)
    # ------------------------------------------------------------------ #
    def _cell_region(self, cell: Cell) -> Region:
        """Express a cell box as a Region so arrangements can be restricted to it."""
        dimension = self.partition.dimension
        region = Region.whole_space(dimension)
        for axis in range(dimension):
            high = cell.high[axis]
            low = cell.low[axis]
            if high > 0:
                coefficients = [0.0] * dimension
                coefficients[axis] = 1.0 / high
                region = region.with_half_space(Hyperplane(tuple(coefficients)).negative())
            if low > 0:
                coefficients = [0.0] * dimension
                coefficients[axis] = 1.0 / low
                region = region.with_half_space(Hyperplane(tuple(coefficients)).positive())
        return region

    def _evaluate_angles(self, angles: np.ndarray) -> bool:
        function = LinearScoringFunction(tuple(to_weights(angles)))
        return self.oracle.evaluate_function(function, self.dataset)

    def _mark_cells(
        self, hyperplanes: list[Hyperplane], by_cell: list[list[int]]
    ) -> tuple[list[np.ndarray | None], list[bool], int]:
        """Assign a satisfactory function to every cell that contains one (``MARKCELL``)."""
        cells = self.partition.cells()
        assigned: list[np.ndarray | None] = [None] * len(cells)
        marked = [False] * len(cells)
        oracle_calls = 0

        for cell in cells:
            crossing = by_cell[cell.index]
            center = cell.center()
            # No hyperplane crosses the cell: the ordering is constant inside
            # it, one oracle call at the centre decides the whole cell.
            oracle_calls += 1
            if self._evaluate_angles(center):
                assigned[cell.index] = center
                marked[cell.index] = True
                continue
            if not crossing:
                continue
            cell_region = self._cell_region(cell)
            result, calls = self._mark_one_cell(cell_region, [hyperplanes[i] for i in crossing])
            oracle_calls += calls
            if result is not None:
                assigned[cell.index] = result
                marked[cell.index] = True
        return assigned, marked, oracle_calls

    def _mark_one_cell(
        self, cell_region: Region, crossing: list[Hyperplane]
    ) -> tuple[np.ndarray | None, int]:
        """Early-stopping search for a satisfactory function inside one cell."""
        oracle_calls = 0

        def probe(region: Region) -> np.ndarray | None:
            nonlocal oracle_calls
            try:
                point = region.interior_point()
            except InfeasibleRegionError:
                return None
            oracle_calls += 1
            if self._evaluate_angles(point):
                return point
            return None

        # Algorithm 8 lines 6-9: try both sides of the first hyperplane before
        # building any tree structure.
        first = crossing[0]
        for half_space in (first.negative(), first.positive()):
            result = probe(cell_region.with_half_space(half_space))
            if result is not None:
                return result, oracle_calls

        tree = ArrangementTree(dimension=self.partition.dimension, base_region=cell_region)
        tree.insert(first)
        for hyperplane in crossing[1:]:
            result = tree.insert(hyperplane, probe)
            if result is not None:
                return np.asarray(result, dtype=float), oracle_calls
        return None, oracle_calls

    # ------------------------------------------------------------------ #
    # CELLCOLORING (Algorithm 10)
    # ------------------------------------------------------------------ #
    def _color_cells(self, index: MDApproxIndex) -> None:
        """Propagate satisfactory functions to unmarked cells with a Dijkstra pass."""
        cells = self.partition.cells()
        distances = [np.inf] * len(cells)
        queue: list[tuple[float, int]] = []
        for cell in cells:
            if index.assigned_angles[cell.index] is not None:
                distances[cell.index] = 0.0
                heapq.heappush(queue, (0.0, cell.index))
        visited = [False] * len(cells)
        while queue:
            distance, current = heapq.heappop(queue)
            if visited[current]:
                continue
            visited[current] = True
            current_angles = index.assigned_angles[current]
            if current_angles is None:
                continue
            for neighbor in self.partition.neighbors(current):
                if visited[neighbor]:
                    continue
                neighbor_center = cells[neighbor].center()
                alternative = angular_distance_angles(current_angles, neighbor_center)
                if alternative < distances[neighbor]:
                    distances[neighbor] = alternative
                    index.assigned_angles[neighbor] = current_angles
                    heapq.heappush(queue, (alternative, neighbor))


def md_online_lookup(index: MDApproxIndex, function: LinearScoringFunction) -> SuggestionResult:
    """The pure index-lookup step of ``MDONLINE`` (Algorithm 11, lines 4-8).

    Locates the query's cell and returns the assigned satisfactory function
    *without* first re-checking whether the query itself is satisfactory (that
    check orders the whole dataset and is what line 1 of Algorithm 11 spends
    its time on).  This is the per-query cost the paper reports in §6.3 — the
    part that is independent of the dataset size — and it is what the online
    latency benchmarks time.  ``satisfactory`` is therefore always False in the
    returned result; use :func:`md_online` for the full Algorithm 11 semantics.

    Raises
    ------
    NotPreprocessedError
        If preprocessing has not populated the index.
    NoSatisfactoryFunctionError
        If no satisfactory function exists anywhere in the space.
    """
    if not index.assigned_angles:
        raise NotPreprocessedError("run ApproximatePreprocessor before issuing online queries")
    if function.dimension != index.n_attributes:
        raise GeometryError("query dimension does not match the dataset")
    if not index.has_satisfactory_function:
        raise NoSatisfactoryFunctionError(
            "no scoring function satisfies the fairness constraint on this dataset"
        )
    weights = function.as_array()
    radius = float(np.linalg.norm(weights))
    query_angles = to_angles(weights)
    assigned = index.assigned_angles[index.partition.locate(query_angles)]
    suggestion = LinearScoringFunction(tuple(to_weights(assigned, radius=radius)))
    return SuggestionResult(
        query=function,
        satisfactory=False,
        function=suggestion,
        angular_distance=angular_distance_angles(query_angles, np.asarray(assigned)),
    )


def md_online(
    dataset: Dataset,
    oracle: FairnessOracle,
    index: MDApproxIndex,
    function: LinearScoringFunction,
) -> SuggestionResult:
    """Online query answering over the cell index (Algorithm 11, ``MDONLINE``).

    Line 1 re-checks the query itself with ``oracle`` on ``dataset`` (the
    dataset the index was built on); an unsatisfactory query is answered by
    :func:`md_online_lookup`.

    Raises
    ------
    NotPreprocessedError
        If preprocessing has not populated the index.
    NoSatisfactoryFunctionError
        If no satisfactory function exists anywhere in the space.
    """
    if not index.assigned_angles:
        raise NotPreprocessedError("run ApproximatePreprocessor before issuing online queries")
    if function.dimension != index.n_attributes:
        raise GeometryError("query dimension does not match the dataset")
    if oracle.evaluate_function(function, dataset):
        return SuggestionResult(
            query=function, satisfactory=True, function=function, angular_distance=0.0
        )
    return md_online_lookup(index, function)
