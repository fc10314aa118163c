"""Tests for the incremental arrangement and the arrangement tree.

The central invariants: (1) both constructions produce the same set of
non-empty regions (the arrangement is unique, only its index differs), and
(2) the regions partition the angle box — every point belongs to at least one
region, and representative points of distinct regions are separated by at
least one inserted hyperplane.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GeometryError
from repro.geometry.angles import HALF_PI
from repro.geometry.arrangement import Arrangement
from repro.geometry.arrangement_tree import ArrangementTree
from repro.geometry.hyperplane import Hyperplane, Region


@pytest.fixture
def sample_hyperplanes() -> list[Hyperplane]:
    return [
        Hyperplane((1.0, 1.0)),
        Hyperplane((2.0, 0.5)),
        Hyperplane((0.8, 2.5)),
        Hyperplane((3.0, 3.0)),
    ]


def region_signature(region: Region, hyperplanes: list[Hyperplane]) -> tuple[int, ...]:
    """Sign vector of a region's interior point with respect to all hyperplanes."""
    point = region.interior_point()
    return tuple(1 if plane.evaluate(point) > 0 else -1 for plane in hyperplanes)


class TestArrangement:
    def test_single_hyperplane_gives_two_regions(self):
        arrangement = Arrangement(dimension=2)
        arrangement.insert(Hyperplane((1.0, 1.0)))
        non_empty = arrangement.non_empty_regions()
        assert len(non_empty) == 2

    def test_region_count_growth_bound(self, sample_hyperplanes):
        """k lines split the plane into at most 1 + k + C(k,2) regions."""
        arrangement = Arrangement.build(sample_hyperplanes, dimension=2)
        k = len(sample_hyperplanes)
        assert arrangement.n_regions <= 1 + k + k * (k - 1) // 2

    def test_every_point_is_covered(self, sample_hyperplanes):
        arrangement = Arrangement.build(sample_hyperplanes, dimension=2)
        rng = np.random.default_rng(0)
        regions = arrangement.non_empty_regions()
        for _ in range(30):
            point = rng.uniform(0, HALF_PI, size=2)
            assert any(region.contains(point, tolerance=1e-9) for region in regions)

    def test_distinct_regions_have_distinct_sign_vectors(self, sample_hyperplanes):
        arrangement = Arrangement.build(sample_hyperplanes, dimension=2)
        signatures = [
            region_signature(region, sample_hyperplanes)
            for region in arrangement.non_empty_regions()
        ]
        assert len(signatures) == len(set(signatures))

    def test_hyperplane_that_misses_base_region_splits_nothing(self):
        base = Region.whole_space(2).with_half_space(Hyperplane((1.0, 1.0)).negative())
        arrangement = Arrangement(dimension=2, base_region=base)
        splits = arrangement.insert(Hyperplane((0.1, 0.1)))  # far outside the base region
        assert splits == 0
        assert arrangement.n_regions == 1

    def test_dimension_mismatch_raises(self):
        arrangement = Arrangement(dimension=2)
        with pytest.raises(GeometryError):
            arrangement.insert(Hyperplane((1.0, 1.0, 1.0)))

    def test_invalid_dimension_raises(self):
        with pytest.raises(GeometryError):
            Arrangement(dimension=0)


class TestArrangementTree:
    def test_leaf_regions_match_flat_arrangement(self, sample_hyperplanes):
        flat = Arrangement.build(sample_hyperplanes, dimension=2)
        tree = ArrangementTree(dimension=2)
        for hyperplane in sample_hyperplanes:
            tree.insert(hyperplane)
        flat_signatures = {
            region_signature(region, sample_hyperplanes)
            for region in flat.non_empty_regions()
        }
        tree_signatures = {
            region_signature(region, sample_hyperplanes)
            for region in tree.leaf_regions()
        }
        assert flat_signatures == tree_signatures

    def test_locate_returns_containing_region(self, sample_hyperplanes):
        tree = ArrangementTree(dimension=2)
        for hyperplane in sample_hyperplanes:
            tree.insert(hyperplane)
        rng = np.random.default_rng(1)
        for _ in range(20):
            point = rng.uniform(0, HALF_PI, size=2)
            region = tree.locate(point)
            assert region.contains(point, tolerance=1e-9)

    def test_fewer_split_tests_than_flat_scan(self):
        rng = np.random.default_rng(2)
        hyperplanes = [
            Hyperplane(tuple(rng.uniform(0.5, 3.0, size=2))) for _ in range(12)
        ]
        flat = Arrangement(dimension=2)
        tree = ArrangementTree(dimension=2)
        for hyperplane in hyperplanes:
            flat.insert(hyperplane)
            tree.insert(hyperplane)
        assert tree.split_tests <= flat.split_tests

    def test_probe_early_stop(self):
        """insert with a probe stops at the first region accepted by the probe."""
        tree = ArrangementTree(dimension=2)
        tree.insert(Hyperplane((1.0, 1.0)))
        calls = []

        def probe(region):
            calls.append(region)
            return region.interior_point()

        result = tree.insert(Hyperplane((2.0, 0.5)), probe)
        assert result is not None
        assert len(calls) == 1

    def test_probe_none_means_exhausted(self):
        tree = ArrangementTree(dimension=2)
        tree.insert(Hyperplane((1.0, 1.0)))
        result = tree.insert(Hyperplane((2.0, 0.5)), lambda region: None)
        assert result is None

    def test_probe_on_empty_tree_covers_both_sides(self):
        tree = ArrangementTree(dimension=2)
        seen = []
        tree.insert(Hyperplane((1.0, 1.0)), lambda region: seen.append(region))
        assert len(seen) >= 1

    def test_n_regions_counts_leaves(self, sample_hyperplanes):
        tree = ArrangementTree(dimension=2)
        assert tree.n_regions == 1
        tree.insert(sample_hyperplanes[0])
        assert tree.n_regions == 2

    def test_dimension_mismatch_raises(self):
        tree = ArrangementTree(dimension=2)
        with pytest.raises(GeometryError):
            tree.insert(Hyperplane((1.0,)))

    def test_base_region_restricts_leaves(self):
        base = Region.whole_space(2).with_half_space(Hyperplane((1.0, 1.0)).negative())
        tree = ArrangementTree(dimension=2, base_region=base)
        tree.insert(Hyperplane((0.9, 0.9)))
        for region in tree.leaf_regions():
            point = region.interior_point()
            assert base.contains(point, tolerance=1e-7)
