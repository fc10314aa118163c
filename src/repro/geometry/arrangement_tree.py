"""The arrangement tree (paper §4.2, Figure 10, Algorithms 5 and 9).

Inserting a hyperplane into a flat list of regions requires testing the
hyperplane against every region.  The *arrangement tree* stores the splits
hierarchically: every internal node carries one hyperplane, its left subtree
holds everything on the ``h⁻`` side and its right subtree everything on the
``h⁺`` side; the leaves are the regions of the arrangement.  When a new
hyperplane misses the region of an internal node, the whole subtree below it
is pruned from the search — the practical speed-up demonstrated in the paper's
Figure 18.

Each node keeps the :class:`~repro.geometry.hyperplane.Region` objects of its
two sides, and those objects persist across insertions.  At ``d = 3`` each
keeps its convex polygon, which decides nearly every hyperplane-vs-region
test without a linear program.  At other dimensions each test is one or two
feasibility LPs: a point the region already knows (its interior point or an
earlier LP witness) certifies its own side, and only the other side needs
an LP.

:meth:`ArrangementTree.insert` is the ``AT+`` of Algorithm 5.  Given a probe
it is the ``ATC+`` of Algorithm 9: it evaluates the probe on every *newly
created* leaf region and stops the whole insertion as soon as the probe
returns a result (the early-stopping strategy used by ``MARKCELL``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.exceptions import GeometryError
from repro.geometry.hyperplane import Hyperplane, Region

__all__ = ["ArrangementTree", "ArrangementTreeNode"]

#: Probe callback: receives a freshly created leaf region, returns a result to
#: stop the insertion (any non-None value) or None to continue.
RegionProbe = Callable[[Region], object | None]


@dataclass
class ArrangementTreeNode:
    """One internal node of the arrangement tree: a hyperplane and its two sides.

    ``region`` is the convex region this node's hyperplane splits; the two side
    regions are materialised once and reused by every later insertion so
    their polygons and cached feasibility witnesses keep paying off.
    """

    hyperplane: Hyperplane
    region: Region
    left: "ArrangementTreeNode | None" = None
    right: "ArrangementTreeNode | None" = None
    left_region: Region = field(init=False)
    right_region: Region = field(init=False)

    def __post_init__(self) -> None:
        self.left_region, self.right_region = self.region.split(self.hyperplane)

    def sides(self) -> list[tuple[str, Region]]:
        """The two sides of this node as ``(attribute_name, region)`` pairs."""
        return [("left", self.left_region), ("right", self.right_region)]


@dataclass
class ArrangementTree:
    """Hierarchical index over the regions of an incrementally built arrangement.

    Parameters
    ----------
    dimension:
        Dimension of the angle space (``d - 1``).
    base_region:
        Region the whole arrangement lives in (a grid cell for ``MARKCELL``,
        or the full angle box).  Defaults to the whole angle box.
    """

    dimension: int
    base_region: Region | None = None
    root: ArrangementTreeNode | None = None
    n_hyperplanes: int = 0
    split_tests: int = field(default=0)

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise GeometryError("arrangement tree dimension must be >= 1")
        if self.base_region is None:
            self.base_region = Region.whole_space(self.dimension)
        if self.base_region.dimension != self.dimension:
            raise GeometryError("base region dimension mismatch")

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def insert(self, hyperplane: Hyperplane, probe: RegionProbe | None = None) -> object | None:
        """Insert a hyperplane (Algorithm 5, ``AT+``; with a probe, Algorithm 9, ``ATC+``).

        ``probe`` runs on every new leaf region; the insertion stops at its
        first non-None result and returns it.  Returns None if the probe
        never fired or none was given.
        """
        if hyperplane.dimension != self.dimension:
            raise GeometryError("hyperplane dimension mismatch")
        self.n_hyperplanes += 1
        if self.root is None:
            self.root = ArrangementTreeNode(hyperplane, self.base_region)
            return self._probe(self.root, probe)
        return self._insert(self.root, hyperplane, probe)

    def _insert(
        self, node: ArrangementTreeNode, hyperplane: Hyperplane, probe: RegionProbe | None
    ) -> object | None:
        for side_name, side_region in node.sides():
            self.split_tests += 1
            if not side_region.intersects_hyperplane(hyperplane):
                continue
            child = getattr(node, side_name)
            if child is None:
                child = ArrangementTreeNode(hyperplane, side_region)
                setattr(node, side_name, child)
                result = self._probe(child, probe)
            else:
                result = self._insert(child, hyperplane, probe)
            if result is not None:
                return result
        return None

    @staticmethod
    def _probe(node: ArrangementTreeNode, probe: RegionProbe | None) -> object | None:
        """The first non-None probe result over a new node's two sides."""
        if probe is not None:
            for region in (node.left_region, node.right_region):
                result = probe(region)
                if result is not None:
                    return result
        return None

    # ------------------------------------------------------------------ #
    # region enumeration
    # ------------------------------------------------------------------ #
    def leaf_regions(self, skip_empty: bool = True) -> list[Region]:
        """Return the regions of the arrangement (the leaves of the tree)."""
        if self.root is None:
            return [self.base_region]
        regions = list(self._collect(self.root))
        if skip_empty:
            regions = [region for region in regions if not region.is_empty()]
        return regions

    def _collect(self, node: ArrangementTreeNode) -> Iterator[Region]:
        for side_name, side_region in node.sides():
            child = getattr(node, side_name)
            if child is None:
                yield side_region
            else:
                yield from self._collect(child)

    @property
    def n_regions(self) -> int:
        """Number of (possibly empty) leaves of the tree."""
        if self.root is None:
            return 1
        return self._count_leaves(self.root)

    def _count_leaves(self, node: ArrangementTreeNode) -> int:
        total = 0
        for child in (node.left, node.right):
            total += 1 if child is None else self._count_leaves(child)
        return total

    # ------------------------------------------------------------------ #
    # point location
    # ------------------------------------------------------------------ #
    def locate(self, point: np.ndarray) -> Region:
        """Return the leaf region containing ``point`` (ties resolved to the ``h⁻`` side)."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dimension,):
            raise GeometryError("point dimension mismatch")
        node = self.root
        region = self.base_region
        while node is not None:
            if node.hyperplane.evaluate(point) <= 0.0:
                region = node.left_region
                node = node.left
            else:
                region = node.right_region
                node = node.right
        return region
