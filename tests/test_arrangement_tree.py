"""Unit tests for the arrangement tree (paper §4.2, Algorithms 5 and 9).

Satellite coverage for the structure the exact engine's incremental insert
path leans on: the ``ATC+`` probe's early exit, dimension validation, and the
structural invariants every node must keep (sides derived from the node's own
region split, leaf accounting, point location landing in a containing leaf).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GeometryError
from repro.geometry.arrangement_tree import ArrangementTree, ArrangementTreeNode
from repro.geometry.hyperplane import Hyperplane, Region

pytestmark = pytest.mark.dynamic


def crossing_hyperplanes():
    """Three hyperplanes that all cross the 2-D angle box ``[0, π/2]²``."""
    return [
        Hyperplane((1 / 0.5, 0.0), label=(0, 1)),   # θ0 = 0.5
        Hyperplane((0.0, 1 / 0.8, ), label=(0, 2)),  # θ1 = 0.8
        Hyperplane((1 / 1.1, 1 / 1.1), label=(1, 2)),  # θ0 + θ1 = 1.1
    ]


def built_tree() -> ArrangementTree:
    tree = ArrangementTree(dimension=2)
    for hyperplane in crossing_hyperplanes():
        tree.insert(hyperplane)
    return tree


class TestInsert:
    def test_counts_and_leaves_grow(self):
        tree = ArrangementTree(dimension=2)
        assert tree.n_regions == 1
        assert tree.leaf_regions() == [tree.base_region]
        for expected, hyperplane in enumerate(crossing_hyperplanes(), start=1):
            tree.insert(hyperplane)
            assert tree.n_hyperplanes == expected
        # 3 mutually crossing lines cut the box into at most 7 region.
        assert 4 <= len(tree.leaf_regions()) <= 7
        assert tree.n_regions == len(tree.leaf_regions(skip_empty=False))

    def test_dimension_mismatch_is_typed(self):
        tree = ArrangementTree(dimension=2)
        with pytest.raises(GeometryError, match="dimension mismatch"):
            tree.insert(Hyperplane((1.0,)))
        with pytest.raises(GeometryError, match="dimension mismatch"):
            tree.insert(Hyperplane((1.0, 2.0, 3.0)), lambda region: None)
        with pytest.raises(GeometryError):
            built_tree().locate(np.array([0.3]))

    def test_base_region_dimension_must_match(self):
        with pytest.raises(GeometryError):
            ArrangementTree(dimension=2, base_region=Region.whole_space(3))
        with pytest.raises(GeometryError):
            ArrangementTree(dimension=0)


class TestInsertWithProbe:
    def test_probe_sees_every_new_region_when_it_never_fires(self):
        tree = ArrangementTree(dimension=2)
        seen: list[Region] = []
        for hyperplane in crossing_hyperplanes():
            result = tree.insert(hyperplane, lambda r: seen.append(r))
            assert result is None
        # Never-firing probe (append returns None): same tree as plain insert.
        plain = built_tree()
        assert tree.n_regions == plain.n_regions
        assert len(seen) >= 2 * len(crossing_hyperplanes()) - 2

    def test_early_exit_stops_the_insertion(self):
        hits: list[Region] = []

        def firing_probe(region: Region):
            hits.append(region)
            return "stop"

        tree = ArrangementTree(dimension=2)
        result = tree.insert(crossing_hyperplanes()[0], firing_probe)
        assert result == "stop"
        assert len(hits) == 1  # second side of the root never probed

    def test_early_exit_leaves_subsequent_sides_unsplit(self):
        first, second, _ = crossing_hyperplanes()
        tree = ArrangementTree(dimension=2)
        tree.insert(first)

        calls = {"n": 0}

        def fire_immediately(region: Region):
            calls["n"] += 1
            return calls["n"]

        # `second` crosses both sides of `first`; firing on the first new
        # region must stop before the right side is ever split.
        result = tree.insert(second, fire_immediately)
        assert result == 1
        assert calls["n"] == 1
        assert (tree.root.left is None) != (tree.root.right is None)

        # A never-firing probe on a fresh tree splits both sides instead.
        control = ArrangementTree(dimension=2)
        control.insert(first)
        control.insert(second, lambda region: None)
        assert control.root.left is not None and control.root.right is not None


class TestNodeInvariants:
    def walk(self, node: ArrangementTreeNode):
        yield node
        for child in (node.left, node.right):
            if child is not None:
                yield from self.walk(child)

    def test_sides_are_the_split_of_the_node_region(self):
        tree = built_tree()
        for node in self.walk(tree.root):
            left, right = node.region.split(node.hyperplane)
            for stored, recomputed in ((node.left_region, left), (node.right_region, right)):
                stored_system = stored.inequality_system()
                recomputed_system = recomputed.inequality_system()
                assert np.array_equal(stored_system[0], recomputed_system[0])
                assert np.array_equal(stored_system[1], recomputed_system[1])
            assert node.sides() == [("left", node.left_region), ("right", node.right_region)]

    def test_children_live_inside_their_side(self):
        tree = built_tree()
        for node in self.walk(tree.root):
            if node.left is not None:
                assert node.left.region is node.left_region
            if node.right is not None:
                assert node.right.region is node.right_region

    def test_locate_returns_a_containing_leaf(self):
        tree = built_tree()
        rng = np.random.default_rng(0)
        points = rng.uniform(0.05, np.pi / 2 - 0.05, size=(50, 2))
        leaves = tree.leaf_regions(skip_empty=False)
        for point in points:
            region = tree.locate(point)
            assert region.contains(point, tolerance=1e-9)
            assert any(leaf is region for leaf in leaves)

    def test_split_tests_accumulate(self):
        tree = ArrangementTree(dimension=2)
        tree.insert(crossing_hyperplanes()[0])
        assert tree.split_tests == 0  # first insert creates the root directly
        tree.insert(crossing_hyperplanes()[1])
        assert tree.split_tests == 2  # tested against both sides of the root
