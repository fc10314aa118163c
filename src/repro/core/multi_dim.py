"""The exact multi-dimensional pipeline: ``SATREGIONS`` and ``MDBASELINE`` (§4).

For ``d > 2`` scoring attributes the space of ranking functions is the
``(d-1)``-dimensional angle box.  The ordering exchanges become hyperplanes in
this box (via ``HYPERPOLAR``), and the cells of their *arrangement* are the
maximal regions with a constant ordering.  ``SATREGIONS`` (Algorithm 4) builds
the arrangement through the arrangement tree of Algorithm 5 and keeps the
regions whose representative ordering the fairness oracle accepts.
``MDBASELINE`` (Algorithm 6) then answers a query exactly, from the point of
every satisfactory region nearest to the query.

At ``d = 3`` every region is a convex polygon, and the nearest point of a
polygon to a query outside it lies on an edge.  The index flattens the edges
of all its satisfactory polygons into arrays once, and each query finds every
region's nearest point in one vectorised pass over them: the cosine to the
query at ``EDGE_SAMPLES`` points of every edge, ``GOLDEN_STEPS`` golden-section
steps around each edge's best sample, and the query itself for a polygon that
contains it.  Any other dimension, and a region whose polygon is degenerate,
solves one SLSQP minimisation per region (:func:`_closest_point_in_region`),
which is also the reference the polygon route is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy.optimize import minimize

from repro.core.result import SuggestionResult
from repro.data.dataset import Dataset
from repro.data.layers import topk_candidate_indices
from repro.exceptions import (
    GeometryError,
    NoSatisfactoryFunctionError,
    NotPreprocessedError,
)
from repro.fairness.batched import evaluate_functions_many
from repro.fairness.oracle import FairnessOracle
from repro.geometry.angles import (
    HALF_PI,
    checked_ray,
    ray_distance,
    to_angles,
    to_weights,
    to_weights_many,
)
from repro.geometry.arrangement_tree import ArrangementTree
from repro.geometry.dual import hyperplanes_for_dataset
from repro.geometry.hyperplane import Hyperplane, Region
from repro.obs.trace import stage_span
from repro.ranking.scoring import LinearScoringFunction

__all__ = [
    "SatisfactoryRegion",
    "MDExactIndex",
    "SatRegions",
    "exchange_hyperplanes",
    "insert_hyperplanes",
    "md_baseline",
]

#: Evenly spaced points, both vertices included, at which the d = 3 route
#: evaluates every polygon edge before refining.
EDGE_SAMPLES = 17
#: Golden-section steps refining each edge around its best sample.
GOLDEN_STEPS = 40
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: Where a golden-section bracket ``[low, low + width]`` is probed.
_INTERIOR = np.array([[1.0 - _GOLDEN], [_GOLDEN]])


@dataclass(frozen=True)
class SatisfactoryRegion:
    """A satisfactory region of the arrangement with its representative function."""

    region: Region
    representative_angles: tuple[float, ...]
    representative: LinearScoringFunction


@dataclass(frozen=True)
class _PolygonEdges:
    """The edges of every solid satisfactory polygon of a ``d = 3`` index, flattened.

    Edge ``e`` runs from ``starts[e]`` to ``starts[e] + directions[e]``
    counter-clockwise around the polygon of ``satisfactory_regions[owners[e]]``.
    The edges of one polygon are contiguous and begin at an entry of ``offsets``.
    """

    starts: np.ndarray
    directions: np.ndarray
    owners: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of(cls, regions: list[SatisfactoryRegion]) -> "_PolygonEdges":
        starts: list[tuple[float, float]] = []
        ends: list[tuple[float, float]] = []
        owners: list[int] = []
        offsets: list[int] = []
        for position, satisfactory in enumerate(regions):
            polygon = satisfactory.region.polygon
            if polygon:
                offsets.append(len(starts))
                starts.extend(polygon)
                ends.extend(polygon[1:] + polygon[:1])
                owners.extend([position] * len(polygon))
        start_array = np.asarray(starts, dtype=float).reshape(-1, 2)
        return cls(
            starts=start_array,
            directions=np.asarray(ends, dtype=float).reshape(-1, 2) - start_array,
            owners=np.asarray(owners, dtype=np.intp),
            offsets=np.asarray(offsets, dtype=np.intp),
        )


@dataclass
class MDExactIndex:
    """Output of ``SATREGIONS``: the satisfactory regions and construction statistics."""

    dimension: int
    satisfactory_regions: list[SatisfactoryRegion] = field(default_factory=list)
    n_hyperplanes: int = 0
    n_regions: int = 0
    oracle_calls: int = 0
    #: The flattened polygon edges of a d = 3 index and every representative's
    #: angles with its checked ray, each built on first use and never
    #: persisted: a loaded or maintained index builds its own.
    _edges: _PolygonEdges | None = field(default=None, init=False, repr=False, compare=False)
    _rays: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def has_satisfactory_region(self) -> bool:
        """True if at least one region of the arrangement is satisfactory."""
        return bool(self.satisfactory_regions)

    def _polygon_edges(self) -> _PolygonEdges:
        if self._edges is None:
            self._edges = _PolygonEdges.of(self.satisfactory_regions)
        return self._edges

    def _representative_rays(self) -> list[tuple[np.ndarray, tuple]]:
        if self._rays is None:
            self._rays = []
            for satisfactory in self.satisfactory_regions:
                angles = np.asarray(satisfactory.representative_angles, dtype=float)
                self._rays.append((angles, checked_ray(to_weights(angles))))
        return self._rays


def exchange_hyperplanes(
    dataset: Dataset,
    max_hyperplanes: int | None = None,
    convex_layer_k: int | None = None,
    preprocess_workers: int = 1,
) -> list[Hyperplane]:
    """The exchange hyperplanes of a ``d >= 3`` dataset, for both pipelines.

    ``convex_layer_k`` keeps only the items of the first ``k`` convex layers
    (the §8 filter for top-``k`` oracles).  ``max_hyperplanes`` is honoured
    inside the chunked enumeration of
    :func:`~repro.geometry.dual.hyperplanes_for_dataset`, so a capped build
    stops constructing at the cap.  ``preprocess_workers > 1`` shards the
    enumeration over
    :func:`repro.parallel.preprocess.parallel_hyperplanes_for_dataset`, which
    is bit-identical to the serial path.
    """
    item_indices = None
    if convex_layer_k is not None:
        item_indices = topk_candidate_indices(dataset.scores, convex_layer_k)
    if preprocess_workers > 1:
        from repro.parallel.preprocess import parallel_hyperplanes_for_dataset

        return parallel_hyperplanes_for_dataset(
            dataset,
            item_indices,
            n_workers=preprocess_workers,
            max_hyperplanes=max_hyperplanes,
        )
    return hyperplanes_for_dataset(dataset, item_indices, max_hyperplanes=max_hyperplanes)


class SatRegions:
    """Offline construction of satisfactory regions in multiple dimensions (Algorithm 4).

    Parameters
    ----------
    dataset:
        Dataset with ``d >= 3`` scoring attributes.
    oracle:
        Fairness oracle labelling orderings.
    max_hyperplanes:
        Optional cap on the number of exchange hyperplanes inserted (the paper
        caps insertions when reporting Figs. 18–19); ``None`` inserts all.
    convex_layer_k:
        If given, restrict exchange construction to the items in the first
        ``k`` convex layers — the §8 "onion" optimisation, valid when the
        oracle only inspects the top-``k``.
    preprocess_workers:
        Worker processes for the hyperplane construction (``1`` = serial;
        see :func:`exchange_hyperplanes`).
    """

    def __init__(
        self,
        dataset: Dataset,
        oracle: FairnessOracle,
        max_hyperplanes: int | None = None,
        convex_layer_k: int | None = None,
        preprocess_workers: int = 1,
    ) -> None:
        if dataset.n_attributes < 3:
            raise GeometryError("SatRegions requires d >= 3; use TwoDRaySweep for d = 2")
        self.dataset = dataset
        self.oracle = oracle
        self.max_hyperplanes = max_hyperplanes
        self.convex_layer_k = convex_layer_k
        self.preprocess_workers = preprocess_workers
        self._hyperplanes: list[Hyperplane] | None = None
        #: Canonically ordered hyperplanes of the last :meth:`run` (the exact
        #: insertion sequence), and the arrangement tree it built (``None``
        #: before the first run).  The engines cache both so insert-only
        #: deltas extend the tree in place.
        self.hyperplanes_: list[Hyperplane] = []
        self.tree_: ArrangementTree | None = None

    # ------------------------------------------------------------------ #
    # offline construction
    # ------------------------------------------------------------------ #
    def build_hyperplanes(self) -> list[Hyperplane]:
        """The exchange hyperplanes (:func:`exchange_hyperplanes`), memoized on the instance.

        Dataset and filter parameters are fixed at construction, so repeated
        ``run()`` calls reuse the hyperplanes.
        """
        if self._hyperplanes is None:
            self._hyperplanes = exchange_hyperplanes(
                self.dataset,
                max_hyperplanes=self.max_hyperplanes,
                convex_layer_k=self.convex_layer_k,
                preprocess_workers=self.preprocess_workers,
            )
        return self._hyperplanes

    def run(self) -> MDExactIndex:
        """Build the arrangement, evaluate every region and keep the satisfactory ones.

        Hyperplanes are inserted in the canonical ``(j, i)`` order of their
        pair labels (larger item index first).  The arrangement — and hence
        the index — is the same for any insertion order; fixing this one makes
        the build *delta-extendable*: every exchange pair created by appending
        an item has a larger index ``>= n``, so its hyperplane sorts after all
        existing ones and an insert-only delta can continue the cached tree's
        insertion sequence exactly where a from-scratch build would.

        The three stages run under the stage spans
        ``preprocess.hyperplane_construction``, ``preprocess.arrangement_build``
        (with its ``split_tests``) and ``preprocess.region_evaluation``.
        """
        dimension = self.dataset.n_attributes - 1
        with stage_span("preprocess.hyperplane_construction") as span:
            hyperplanes = self.build_hyperplanes()
            if all(plane.label is not None for plane in hyperplanes):
                hyperplanes = sorted(
                    hyperplanes, key=lambda plane: (plane.label[1], plane.label[0])
                )
            if span is not None:
                span.set("n_hyperplanes", len(hyperplanes))
        self.hyperplanes_ = hyperplanes
        tree = ArrangementTree(dimension=dimension)
        insert_hyperplanes(tree, hyperplanes)
        self.tree_ = tree
        return self.evaluate_tree(tree, len(hyperplanes))

    def evaluate_tree(self, tree: ArrangementTree, n_hyperplanes: int) -> MDExactIndex:
        """Evaluate the leaf regions of a (possibly cached) arrangement tree.

        The delta-maintenance entry point: the tree carries the
        oracle-free geometry, so only the per-region oracle evaluation — which
        is data-dependent and must re-run after any change — happens here.
        The result is exactly what :meth:`run` would produce after inserting
        the same hyperplane sequence into a fresh tree.

        One oracle call per non-empty leaf region keeps the satisfactory ones
        (Algorithm 4 tail), under the ``preprocess.region_evaluation`` stage
        span, which carries ``n_regions`` and ``oracle_calls``.
        """
        with stage_span("preprocess.region_evaluation") as span:
            regions = tree.leaf_regions()
            index = MDExactIndex(
                dimension=self.dataset.n_attributes - 1,
                n_hyperplanes=int(n_hyperplanes),
                n_regions=len(regions),
            )
            for region in regions:
                angles = region.interior_point()
                function = LinearScoringFunction(tuple(to_weights(angles)))
                index.oracle_calls += 1
                if self.oracle.evaluate_function(function, self.dataset):
                    index.satisfactory_regions.append(
                        SatisfactoryRegion(
                            region=region,
                            representative_angles=tuple(angles),
                            representative=function,
                        )
                    )
            if span is not None:
                span.set("n_regions", index.n_regions)
                span.set("oracle_calls", index.oracle_calls)
        return index


def insert_hyperplanes(tree: ArrangementTree, hyperplanes: Iterable[Hyperplane]) -> None:
    """Insert ``hyperplanes`` in order under the ``preprocess.arrangement_build`` span.

    The span carries ``split_tests``, the region-vs-hyperplane tests these
    insertions made.  Serves the full build and the exact engine's
    insert-only delta, which extends its cached tree.
    """
    with stage_span("preprocess.arrangement_build") as span:
        split_tests = tree.split_tests
        for hyperplane in hyperplanes:
            tree.insert(hyperplane)
        if span is not None:
            span.set("split_tests", tree.split_tests - split_tests)


def _closest_point_in_region(
    satisfactory: SatisfactoryRegion, query_angles: np.ndarray
) -> tuple[np.ndarray, float]:
    """Minimise the angular distance from ``query_angles`` to a convex region.

    Solved with SLSQP over the region's linear inequality constraints and the
    angle box bounds, started from the region's representative point — its
    Chebyshev centre, which the index persists, so no linear program runs.
    """
    region = satisfactory.region
    a_matrix, b_vector = region.inequality_system()
    start = np.asarray(satisfactory.representative_angles, dtype=float)
    query_ray = checked_ray(to_weights(query_angles))

    def distance(theta: np.ndarray) -> float:
        return ray_distance(checked_ray(to_weights(theta)), query_ray)

    constraints = []
    if a_matrix.size:
        constraints.append(
            {"type": "ineq", "fun": lambda theta: b_vector - a_matrix @ theta}
        )
    bounds = [(0.0, HALF_PI)] * region.dimension
    solution = minimize(
        lambda theta: distance(np.clip(theta, 0.0, HALF_PI)),
        x0=start,
        method="SLSQP",
        bounds=bounds,
        constraints=constraints,
        options={"maxiter": 200, "ftol": 1e-10},
    )
    candidate = np.clip(solution.x, 0.0, HALF_PI) if solution.success else start
    if a_matrix.size and np.any(a_matrix @ candidate - b_vector > 1e-7):
        candidate = start
    return candidate, distance(candidate)


def _nearest_polygon_points(
    edges: _PolygonEdges, query_angles: np.ndarray
) -> dict[int, tuple[np.ndarray, float]]:
    """The point of every solid satisfactory polygon nearest the query, and its distance.

    Keyed by region position.  The query's ray has the largest cosine at the
    closest point, so one pass maximises the cosine along every edge at once:
    ``EDGE_SAMPLES`` evenly spaced points (both vertices among them), then
    ``GOLDEN_STEPS`` golden-section steps over the two sample intervals
    around each edge's best sample.  A polygon that contains the query
    answers with the query itself, at distance 0.
    """
    # cos(query, ray(θ)) = u0 cos θ1 + ρ sin θ1 cos(θ2 - φ), with u the query's
    # unit weight vector and (ρ, φ) the polar form of (u1, u2).
    u0, u1, u2 = to_weights(query_angles)
    rho, phi = math.hypot(u1, u2), math.atan2(u2, u1)
    start1, start2 = edges.starts[:, 0], edges.starts[:, 1] - phi
    step1, step2 = edges.directions[:, 0], edges.directions[:, 1]

    def cosines(t: np.ndarray) -> np.ndarray:
        theta1 = start1 + t * step1
        return u0 * np.cos(theta1) + rho * np.sin(theta1) * np.cos(start2 + t * step2)

    samples = np.linspace(0.0, 1.0, EDGE_SAMPLES)[:, None]
    sampled = cosines(samples)
    best_t, best_cosine = samples[sampled.argmax(axis=0), 0], sampled.max(axis=0)
    # Golden-section search for the maximum on [low, low + width]: both
    # interior points are evaluated each step, and the bracket keeps the
    # side of the larger one, shrinking by the golden ratio (the right side
    # starts (1 - g) w = g² w further on).
    low = np.maximum(best_t - samples[1, 0], 0.0)
    width = np.minimum(best_t + samples[1, 0], 1.0) - low
    for _step in range(GOLDEN_STEPS):
        inner = cosines(low + _INTERIOR * width)
        width = width * _GOLDEN
        low = low + (inner[0] < inner[1]) * (_GOLDEN * width)
    refined = low + 0.5 * width
    refined_cosine = cosines(refined)
    better = refined_cosine > best_cosine
    best_t = np.where(better, refined, best_t)
    best_cosine = np.where(better, refined_cosine, best_cosine)

    # Counter-clockwise polygons: the query is inside when it lies on the
    # left of (or on) every edge of its polygon.
    relative = query_angles - edges.starts
    cross = step1 * relative[:, 1] - step2 * relative[:, 0]
    offsets = edges.offsets.tolist()
    inside = np.minimum.reduceat(cross, offsets) >= 0.0
    nearest: dict[int, tuple[np.ndarray, float]] = {}
    for first, stop, contains in zip(offsets, [*offsets[1:], len(cross)], inside):
        position = int(edges.owners[first])
        if contains:
            nearest[position] = (np.array(query_angles, dtype=float), 0.0)
            continue
        edge = first + int(np.argmax(best_cosine[first:stop]))
        point = edges.starts[edge] + best_t[edge] * edges.directions[edge]
        distance = math.acos(min(1.0, max(-1.0, float(best_cosine[edge]))))
        nearest[position] = (np.clip(point, 0.0, HALF_PI), distance)
    return nearest


def _region_candidates(
    index: MDExactIndex, query_angles: np.ndarray
) -> tuple[list[tuple[float, np.ndarray, SatisfactoryRegion]], int, int]:
    """Every satisfactory region's point nearest the query, with its angular distance.

    Also returns the number of polygon edges scanned and of SLSQP solves made.
    """
    nearest: dict[int, tuple[np.ndarray, float]] = {}
    n_edges = 0
    if index.dimension == 2:
        edges = index._polygon_edges()
        n_edges = len(edges.owners)
        if n_edges:
            nearest = _nearest_polygon_points(edges, query_angles)
    candidates: list[tuple[float, np.ndarray, SatisfactoryRegion]] = []
    for position, satisfactory in enumerate(index.satisfactory_regions):
        if position in nearest:
            point, distance = nearest[position]
        else:
            point, distance = _closest_point_in_region(satisfactory, query_angles)
        candidates.append((distance, point, satisfactory))
    return candidates, n_edges, len(candidates) - len(nearest)


def md_baseline(
    dataset: Dataset,
    oracle: FairnessOracle,
    index: MDExactIndex,
    function: LinearScoringFunction,
) -> SuggestionResult:
    """Exact CLOSEST SATISFACTORY FUNCTION answering over an ``MDExactIndex``.

    Runs under three stage spans: ``query.precheck`` (the query's own
    verdict), ``query.region_distances`` (attributes ``n_regions``,
    ``n_edges`` and ``minimize_calls``) and ``query.blend_verification``
    (attribute ``oracle_calls``); a satisfactory query opens only the first.

    Raises
    ------
    NotPreprocessedError
        If the index was never populated.
    NoSatisfactoryFunctionError
        If the constraint is unsatisfiable on this dataset.
    """
    if index.n_regions == 0:
        raise NotPreprocessedError("run SatRegions before issuing online queries")
    if function.dimension != dataset.n_attributes:
        raise GeometryError("query dimension does not match the dataset")
    with stage_span("query.precheck"):
        satisfactory_query = oracle.evaluate_function(function, dataset)
    if satisfactory_query:
        return SuggestionResult(
            query=function, satisfactory=True, function=function, angular_distance=0.0
        )
    if not index.has_satisfactory_region:
        raise NoSatisfactoryFunctionError(
            "no scoring function satisfies the fairness constraint on this dataset"
        )
    query_angles = to_angles(function.as_array())
    radius = float(np.linalg.norm(function.as_array()))
    with stage_span("query.region_distances") as span:
        candidates, n_edges, minimize_calls = _region_candidates(index, query_angles)
        candidates.sort(key=lambda entry: entry[0])
        if span is not None:
            span.set("n_regions", len(candidates))
            span.set("n_edges", n_edges)
            span.set("minimize_calls", minimize_calls)

    # The closest point usually lies on the region's boundary, where the induced
    # ordering can tip to the unsatisfactory side (the angle-space hyperplanes
    # are chords of the true curved exchange loci, and ties break arbitrarily).
    # Verify with the oracle and, if needed, blend the point toward the region's
    # interior representative — which is satisfactory by construction — keeping
    # the suggestion as close to optimal as the verification allows.  The
    # candidates advance through the blend levels in lockstep so each level's
    # probes go to the oracle as one batch (a batched oracle judges them with
    # one is_satisfactory_many); every candidate is still evaluated at exactly
    # the levels the per-candidate loop would reach, so oracle-call totals are
    # unchanged.
    with stage_span("query.blend_verification") as span:
        query_ray = checked_ray(to_weights(query_angles))
        verified: list[tuple[float, np.ndarray]] = []
        nearest = candidates[:3]
        width = query_angles.size
        points = np.array([point for _, point, _ in nearest], dtype=float).reshape(-1, width)
        interiors = np.array(
            [region.representative_angles for _, _, region in nearest], dtype=float
        ).reshape(-1, width)
        oracle_calls = 0
        for blend in (0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0):
            if not len(points):
                break
            blended = (1.0 - blend) * points + blend * interiors
            # to_weights(point, radius) is radius * to_weights(point): one unit
            # row per point serves both the probe and the verified distance.
            units = to_weights_many(blended)
            probe_weights = radius * units
            make_probe = LinearScoringFunction._row_constructor(probe_weights)
            probes = [make_probe(tuple(row)) for row in probe_weights.tolist()]
            accepted = evaluate_functions_many(
                oracle, dataset, probes, weight_matrix=probe_weights
            )
            oracle_calls += len(probes)
            for point, unit in zip(blended[accepted], units[accepted]):
                verified.append((ray_distance(checked_ray(unit), query_ray), point))
            points, interiors = points[~accepted], interiors[~accepted]
        # Region representatives are satisfactory by construction; they both
        # serve as a fallback and cap the suggestion distance from above.
        for representative, ray in index._representative_rays():
            verified.append((ray_distance(ray, query_ray), representative))
        best_distance, best_angles = min(verified, key=lambda entry: entry[0])
        if span is not None:
            span.set("oracle_calls", oracle_calls)
    suggestion = LinearScoringFunction(tuple(to_weights(best_angles, radius=radius)))
    return SuggestionResult(
        query=function,
        satisfactory=False,
        function=suggestion,
        angular_distance=float(best_distance),
    )
