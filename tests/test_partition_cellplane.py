"""Tests for angle-space partitions and the CELLPLANE× cell-hyperplane assignment.

The array kernel of :func:`~repro.geometry.cellplane.assign_hyperplanes_to_cells`
is checked against its specification, the scalar corner test of
:func:`~repro.geometry.cellplane.hyperplanes_through_cell`: every cell's list
must be equal, order included, on both partitions at d = 3 to 6, for a table
of hyperplanes through cell corners and along cell edges, with negative and
zero coefficients, missing the box, none at all, and spread over many blocks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ConfigurationError, GeometryError
from repro.geometry.angles import HALF_PI, angular_distance_angles
import repro.geometry.cellplane as cellplane_module
from repro.geometry.cellplane import assign_hyperplanes_to_cells, hyperplanes_through_cell
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.partition import (
    AnglePartition,
    Cell,
    UniformGridPartition,
    cell_gamma,
    theorem6_bound,
)


def angle_points(dimension: int):
    return arrays(
        float, dimension, elements=st.floats(0.0, HALF_PI, allow_nan=False)
    )


class TestGammaAndBound:
    def test_gamma_decreases_with_more_cells(self):
        assert cell_gamma(1000, 3) < cell_gamma(100, 3)

    def test_bound_decreases_with_more_cells(self):
        assert theorem6_bound(10_000, 3) < theorem6_bound(100, 3)

    def test_bound_is_positive(self):
        assert theorem6_bound(1024, 4) > 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            cell_gamma(0, 3)
        with pytest.raises(ConfigurationError):
            theorem6_bound(10, 1)


class TestUniformGridPartition:
    def test_cell_count_reaches_target(self):
        partition = UniformGridPartition(2, 100)
        assert partition.n_cells >= 100

    def test_cells_tile_the_box(self):
        partition = UniformGridPartition(2, 16)
        total_area = sum(np.prod(cell.coordinate_extents()) for cell in partition.cells())
        assert total_area == pytest.approx(HALF_PI**2, rel=1e-9)

    def test_locate_returns_containing_cell(self):
        partition = UniformGridPartition(3, 64)
        rng = np.random.default_rng(0)
        for _ in range(50):
            point = rng.uniform(0, HALF_PI, size=3)
            cell = partition.cell(partition.locate(point))
            assert cell.contains(point)

    def test_locate_handles_boundary(self):
        partition = UniformGridPartition(2, 16)
        top = np.array([HALF_PI, HALF_PI])
        cell = partition.cell(partition.locate(top))
        assert cell.contains(top)

    def test_locate_rejects_out_of_box(self):
        partition = UniformGridPartition(2, 16)
        with pytest.raises(GeometryError):
            partition.locate(np.array([-0.5, 0.1]))

    def test_neighbors_are_adjacent(self):
        partition = UniformGridPartition(2, 16)
        for index in range(partition.n_cells):
            cell = partition.cell(index)
            for neighbor_index in partition.neighbors(index):
                neighbor = partition.cell(neighbor_index)
                gap = np.maximum(
                    np.asarray(cell.low) - np.asarray(neighbor.high),
                    np.asarray(neighbor.low) - np.asarray(cell.high),
                )
                assert np.all(gap <= 1e-12)

    def test_corner_cell_has_fewer_neighbors(self):
        partition = UniformGridPartition(2, 16)
        corner = partition.locate(np.array([0.0, 0.0]))
        middle = partition.locate(np.array([HALF_PI / 2, HALF_PI / 2]))
        assert len(partition.neighbors(corner)) < len(partition.neighbors(middle))

    @given(angle_points(2))
    @settings(max_examples=60, deadline=None)
    def test_cell_diameter_bound_holds(self, point):
        partition = UniformGridPartition(2, 64)
        cell = partition.cell(partition.locate(point))
        center = cell.center()
        if not np.any(center > 0) or not np.any(point > 0):
            return
        assert angular_distance_angles(point, center) <= partition.max_cell_diameter() + 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            UniformGridPartition(0, 10)
        with pytest.raises(ConfigurationError):
            UniformGridPartition(2, 0)


class TestAnglePartition:
    def test_cells_cover_random_points(self):
        partition = AnglePartition(2, 200)
        rng = np.random.default_rng(1)
        for _ in range(50):
            point = rng.uniform(0, HALF_PI, size=2)
            cell = partition.cell(partition.locate(point))
            assert cell.contains(point)

    def test_adaptive_rows_are_wider_near_the_pole(self):
        """Cells whose prefix angle is near 0 (small sin) get wider second-axis ranges."""
        partition = AnglePartition(2, 400)
        cells = partition.cells()
        near_pole = [c for c in cells if c.low[0] == 0.0]
        far_from_pole = [c for c in cells if c.high[0] == pytest.approx(HALF_PI)]
        mean_width_near = np.mean([c.coordinate_extents()[1] for c in near_pole])
        mean_width_far = np.mean([c.coordinate_extents()[1] for c in far_from_pole])
        assert mean_width_near >= mean_width_far

    def test_diameter_bound(self):
        partition = AnglePartition(2, 300)
        rng = np.random.default_rng(2)
        bound = partition.max_cell_diameter()
        for _ in range(30):
            point = rng.uniform(1e-3, HALF_PI, size=2)
            cell = partition.cell(partition.locate(point))
            center = np.clip(cell.center(), 1e-9, HALF_PI)
            assert angular_distance_angles(point, center) <= bound + 1e-6

    def test_neighbors_touch(self):
        partition = AnglePartition(2, 60)
        index = partition.locate(np.array([0.7, 0.7]))
        cell = partition.cell(index)
        for neighbor_index in partition.neighbors(index):
            neighbor = partition.cell(neighbor_index)
            gap = np.maximum(
                np.asarray(cell.low) - np.asarray(neighbor.high),
                np.asarray(neighbor.low) - np.asarray(cell.high),
            )
            assert np.all(gap <= 1e-9)

    def test_cell_index_out_of_range(self):
        partition = AnglePartition(2, 50)
        with pytest.raises(GeometryError):
            partition.cell(partition.n_cells + 5)


#: Target cell counts of the adjacency check; the table stops at 400 from
#: dimension 3 on, where the cell counts grow fastest.
ADJACENCY_CELL_COUNTS = (1, 2, 3, 5, 9, 16, 25, 36, 64, 100, 256, 400, 1024)


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
@pytest.mark.parametrize("partition_type", [UniformGridPartition, AnglePartition])
def test_neighbors_graph_is_connected(partition_type, dimension):
    """Every cell reaches every other through ``neighbors``, and each edge is mutual.

    ``CELLCOLORING`` spreads a function over this graph, and the grid index's
    invariant (every cell assigned, or none) holds because it is connected.
    """
    for n_cells in ADJACENCY_CELL_COUNTS:
        if dimension >= 3 and n_cells > 400:
            continue
        partition = partition_type(dimension, n_cells)
        reached = {0}
        frontier = [0]
        while frontier:
            cell = frontier.pop()
            for neighbor in partition.neighbors(cell):
                assert cell in partition.neighbors(neighbor), (n_cells, cell, neighbor)
                if neighbor not in reached:
                    reached.add(neighbor)
                    frontier.append(neighbor)
        assert len(reached) == partition.n_cells, n_cells


class TestCellPlaneAssignment:
    def test_matches_bruteforce_reference(self):
        partition = UniformGridPartition(2, 36)
        rng = np.random.default_rng(3)
        hyperplanes = [Hyperplane(tuple(rng.uniform(0.5, 3.0, size=2))) for _ in range(10)]
        index = assign_hyperplanes_to_cells(partition, hyperplanes)
        for cell in partition.cells():
            expected = set(hyperplanes_through_cell(cell, hyperplanes))
            assert set(index.by_cell[cell.index]) == expected

    def test_counts_shape(self):
        partition = UniformGridPartition(2, 25)
        hyperplanes = [Hyperplane((1.0, 1.0)), Hyperplane((2.0, 2.0))]
        index = assign_hyperplanes_to_cells(partition, hyperplanes)
        counts = index.counts()
        assert counts.shape == (partition.n_cells,)
        assert counts.sum() == sum(len(entry) for entry in index.by_cell)

    def test_dimension_mismatch_raises(self):
        partition = UniformGridPartition(2, 4)
        with pytest.raises(GeometryError):
            assign_hyperplanes_to_cells(partition, [Hyperplane((1.0, 1.0, 1.0))])

    def test_works_with_adaptive_partition(self):
        partition = AnglePartition(2, 40)
        hyperplanes = [Hyperplane((1.5, 1.5))]
        index = assign_hyperplanes_to_cells(partition, hyperplanes)
        for cell in partition.cells():
            expected = set(hyperplanes_through_cell(cell, hyperplanes))
            assert set(index.by_cell[cell.index]) == expected


#: Both partitions at d = 3 to 6 (angle-space dimension 2 to 5).
KERNEL_PARTITIONS = {
    "uniform-d3": lambda: UniformGridPartition(2, 36),
    "uniform-d4": lambda: UniformGridPartition(3, 64),
    "uniform-d5": lambda: UniformGridPartition(4, 81),
    "uniform-d6": lambda: UniformGridPartition(5, 32),
    "angle-d3": lambda: AnglePartition(2, 40),
    "angle-d4": lambda: AnglePartition(3, 60),
    "angle-d5": lambda: AnglePartition(4, 60),
    "angle-d6": lambda: AnglePartition(5, 60),
}


def hyperplane_table(partition, seed: int) -> list[Hyperplane]:
    """Seeded hyperplanes covering the corner test's edge cases on ``partition``."""
    rng = np.random.default_rng(seed)
    dimension = partition.dimension
    cells = partition.cells()
    table = [Hyperplane(tuple(rng.uniform(0.3, 3.0, dimension))) for _ in range(10)]
    for _ in range(8):
        # Negative and zero coefficients.
        coefficients = rng.uniform(-3.0, 3.0, dimension)
        coefficients[rng.integers(dimension)] = 0.0
        coefficients[rng.integers(dimension)] = rng.uniform(0.5, 3.0)
        table.append(Hyperplane(tuple(coefficients)))
    for position in rng.choice(len(cells), size=6, replace=False).tolist():
        cell = cells[position]
        # Through a cell corner (h · corner = 1) and along a cell edge.
        corner = np.asarray(cell.high)
        table.append(Hyperplane(tuple(corner / float(corner @ corner))))
        axis = int(rng.integers(dimension))
        edge = [0.0] * dimension
        edge[axis] = 1.0 / cell.high[axis]
        table.append(Hyperplane(tuple(edge)))
    # Missing the whole box: beyond its far corner, and on its negative side.
    table.append(Hyperplane(tuple([0.05] * dimension)))
    table.append(Hyperplane(tuple([-1.0] * dimension)))
    return table


def assert_matches_reference(partition, hyperplanes) -> None:
    index = assign_hyperplanes_to_cells(partition, hyperplanes)
    assert len(index.by_cell) == partition.n_cells
    for cell in partition.cells():
        assert index.by_cell[cell.index] == hyperplanes_through_cell(cell, hyperplanes)


@pytest.mark.perf_smoke
class TestCellPlaneKernel:
    """The array kernel returns the scalar corner test's lists, order included."""

    @pytest.mark.parametrize("case", sorted(KERNEL_PARTITIONS))
    def test_lists_equal_the_scalar_reference(self, case):
        partition = KERNEL_PARTITIONS[case]()
        hyperplanes = hyperplane_table(partition, seed=len(case))
        pairs = int(assign_hyperplanes_to_cells(partition, hyperplanes).counts().sum())
        assert 0 < pairs < partition.n_cells * len(hyperplanes)
        assert_matches_reference(partition, hyperplanes)

    @pytest.mark.parametrize("case", ["uniform-d3", "angle-d5"])
    def test_no_hyperplanes_gives_empty_lists(self, case):
        partition = KERNEL_PARTITIONS[case]()
        index = assign_hyperplanes_to_cells(partition, [])
        assert index.by_cell == [[] for _ in range(partition.n_cells)]
        assert index.counts().tolist() == [0] * partition.n_cells

    def test_missing_hyperplanes_cross_no_cell(self):
        partition = UniformGridPartition(3, 64)
        missing = [Hyperplane((0.05, 0.05, 0.05)), Hyperplane((-1.0, 0.0, -2.0))]
        assert not any(assign_hyperplanes_to_cells(partition, missing).by_cell)

    def test_sums_the_corner_terms_in_the_scalar_order(self):
        """A corner minimum whose rounding depends on the order of its three terms.

        The terms are 1, t and t with t = 0.75 ulp(1) / 2.  Summed left to
        right, as the scalar test sums them, the minimum rounds back to
        exactly 1 and the box is crossed; adding the two small terms first
        rounds it up past 1, and the box would be missed.
        """
        tiny = 0.75 * 2.0**-53
        cell = Cell(index=0, low=(1.0, 1.0, 1.0), high=(1.25, 1.25, 1.25))

        class OneCell:
            dimension = 3

            def cells(self):
                return [cell]

        hyperplanes = [Hyperplane((1.0, tiny, tiny)), Hyperplane((0.5, 0.25, 0.25))]
        assert hyperplanes_through_cell(cell, hyperplanes) == [0, 1]
        assert assign_hyperplanes_to_cells(OneCell(), hyperplanes).by_cell == [[0, 1]]

    @pytest.mark.parametrize("case", ["uniform-d4", "angle-d3"])
    def test_many_blocks_match_one(self, case, monkeypatch):
        partition = KERNEL_PARTITIONS[case]()
        hyperplanes = hyperplane_table(partition, seed=7) * 3
        whole = assign_hyperplanes_to_cells(partition, hyperplanes).by_cell
        # Three hyperplanes per block: many blocks, the last one partial.
        monkeypatch.setattr(
            cellplane_module,
            "_BLOCK_ELEMENTS",
            3 * partition.n_cells * partition.dimension,
        )
        assert assign_hyperplanes_to_cells(partition, hyperplanes).by_cell == whole
        assert_matches_reference(partition, hyperplanes)


@pytest.mark.perf_smoke
def test_cellplane_smoke():
    """One uniform grid and one angle partition: the check_all.py cellplane gate."""
    for partition in (UniformGridPartition(3, 64), AnglePartition(2, 40)):
        assert_matches_reference(partition, hyperplane_table(partition, seed=3))
