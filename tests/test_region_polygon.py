"""The polygon route of dimension-2 regions against its specification, the Eq. 6 LP.

At ``d = 3`` a :class:`~repro.geometry.hyperplane.Region` answers its split
and emptiness tests from its convex polygon when the vertex values make the
answer certain, and defers to the linear program otherwise.  The LP stays the
specification: every polygon decision must equal the LP route called
directly, or the polygon must have deferred.  Covered:

* one parameter table of degenerate geometry — hyperplanes through a vertex,
  along an edge or touching only a box corner, duplicates, three concurrent
  lines, a sliver thinner than the band, a region clipped to empty, the
  whole box;
* seeded random arrangements of 30+ lines, checked at every split test of
  the arrangement tree and every emptiness test of its leaves;
* the polygon itself: clipping the parent's polygon equals building it from
  the half-spaces, and its vertices satisfy every half-space;
* tied scores: a hyperplane equal to one that already bounds a region
  splits nothing, so a build with duplicate hyperplanes equals the build
  without them, for the exact and the approximate engine;
* the all-LP differential at the engine seam: forcing every decision
  through the LP changes no answer, oracle call or payload byte, for the
  exact engine, the approximate engine on both partitions, and an exact
  insert-only ``apply_delta``; and no region of the flat
  :class:`~repro.geometry.arrangement.Arrangement`.

Representative points are Chebyshev centres.  A region with a solid polygon
computes its centre from the polygon; the centring LP stays the
specification (``tests/differential.py::lp_centres``):

* on the degenerate table, random arrangements and tied data that makes
  rectangles, the polygon centre's inscribed radius equals the LP centre's
  within 1e-12; where the optimum is unique the two points agree within
  1e-9, and where it is a segment (the rectangles) the polygon centre is
  its midpoint, in the region at that radius;
* at the engine seam, a build with LP centres marks the same cells and
  keeps the same satisfactory regions, and every suggestion passes the raw
  oracle, for the exact engine, the approximate engine on both partitions
  and an exact insert-only ``apply_delta``.  The builds ask for the same
  centres, each within 1e-9 of the other route's, until a region whose
  optimum is a segment; a build that meets none also makes the same oracle
  calls and places every representative in the same arrangement region.
  Only the angle partition's build meets one, in a thin edge cell.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator

import numpy as np
import pytest

from differential import (
    assert_engines_equivalent,
    lp_centres,
    lp_only_regions,
    make_weight_grid,
    region_geometry,
    representative_sign_vectors,
)
from repro.core.engine import ApproxConfig, ExactConfig, create_engine
from repro.core.maintenance import DatasetDelta
from repro.core.multi_dim import exchange_hyperplanes
from repro.data.dataset import Dataset
from repro.data.synthetic import COMPAS_SCORING_ATTRIBUTES, make_compas_like
from repro.exceptions import InfeasibleRegionError
from repro.fairness.oracle import CountingOracle
from repro.fairness.proportional import ProportionalOracle
from repro.geometry.angles import HALF_PI
from repro.geometry.arrangement import Arrangement
from repro.geometry.arrangement_tree import ArrangementTree
from repro.geometry.dual import hyperplanes_for_dataset, hyperpolar_many
from repro.geometry.hyperplane import Hyperplane, Region

ATTRIBUTES = ["c_days_from_compas", "juv_other_count", "start"]


def line_through(p, q) -> Hyperplane:
    """The hyperplane ``h · θ = 1`` through two points of the angle plane."""
    return Hyperplane(tuple(np.linalg.solve(np.array([p, q], dtype=float), np.ones(2))))


def box_region(*half_spaces) -> Region:
    region = Region.whole_space(2)
    for half_space in half_spaces:
        region = region.with_half_space(half_space)
    return region


def lp_intersects(region: Region, hyperplane: Hyperplane) -> bool:
    with lp_only_regions():
        return Region(2, list(region.half_spaces)).intersects_hyperplane(hyperplane)


def lp_is_empty(region: Region) -> bool:
    with lp_only_regions():
        return Region(2, list(region.half_spaces)).is_empty()


def assert_matches_lp(region: Region, hyperplane: Hyperplane | None):
    """The polygon's decision equals the LP route's, or the polygon deferred."""
    verdict = region._polygon_meets(hyperplane)
    if verdict is not None:
        if hyperplane is None:
            assert verdict is not lp_is_empty(region)
        else:
            assert verdict is lp_intersects(region, hyperplane)
    return verdict


# --------------------------------------------------------------------------- #
# degenerate geometry: one parameter table
# --------------------------------------------------------------------------- #
TRIANGLE = (Hyperplane((1.0, 1.0)).negative(),)  # x + y <= 1: corners (0,0), (1,0), (0,1)
APEX = (0.6, 0.7)
WEDGE = (
    line_through(APEX, (1.2, 0.0)).negative(),
    line_through(APEX, (0.0, 0.3)).negative(),
)
SLIVER = (
    Hyperplane((1.0 / 0.5, 0.0)).positive(),
    Hyperplane((1.0 / (0.5 + 1e-10), 0.0)).negative(),
)
CLIPPED_EMPTY = (Hyperplane((2.0, 2.0)).negative(), Hyperplane((1.0, 1.0)).positive())

#: ``(case, region half-spaces, hyperplane or None for the emptiness test,
#: the polygon's expected decision: True / False, or None when it defers)``.
DEGENERATE_CASES = [
    ("through-vertex-touching", TRIANGLE, Hyperplane((1.0, 0.5)), None),
    ("through-vertex-splitting", TRIANGLE, Hyperplane((1.0, 2.0)), True),
    ("along-box-edge", (), Hyperplane((1.0 / HALF_PI, 0.0)), None),
    ("along-region-edge", WEDGE, line_through((0.9, 0.35), (1.2, 0.0)), None),
    ("touching-box-corner", (), Hyperplane((1.0 / np.pi, 1.0 / np.pi)), None),
    ("duplicate-defining", TRIANGLE, Hyperplane((1.0, 1.0)), None),
    ("concurrent-through-apex", WEDGE, line_through(APEX, (0.2, 1.2)), True),
    ("concurrent-touching-apex", WEDGE, Hyperplane((0.0, 1.0 / APEX[1])), None),
    ("sliver-crossed", SLIVER, Hyperplane((0.0, 2.0)), None),
    ("sliver-emptiness", SLIVER, None, None),
    ("clipped-to-empty", CLIPPED_EMPTY, Hyperplane((1.0, 0.5)), None),
    ("clipped-to-empty-emptiness", CLIPPED_EMPTY, None, None),
    ("whole-box-split", (), Hyperplane((1.0, 1.0)), True),
    ("whole-box-missed", (), Hyperplane((0.1, 0.1)), False),
    ("whole-box-emptiness", (), None, True),
    ("triangle-missed-beyond", TRIANGLE, Hyperplane((0.4, 0.4)), False),
]


@pytest.mark.parametrize(
    "half_spaces, hyperplane, expected",
    [case[1:] for case in DEGENERATE_CASES],
    ids=[case[0] for case in DEGENERATE_CASES],
)
def test_degenerate_geometry_matches_the_lp_or_defers(half_spaces, hyperplane, expected):
    region = box_region(*half_spaces)
    assert assert_matches_lp(region, hyperplane) is expected
    # The public methods agree with the LP route whichever route answered.
    if hyperplane is None:
        assert region.is_empty() is lp_is_empty(region)
    else:
        assert region.intersects_hyperplane(hyperplane) is lp_intersects(region, hyperplane)


def test_touching_box_corner_is_a_crossing_for_cellplane():
    """The corner-touching row is the case ``crosses_box`` admits."""
    low, high = np.zeros(2), np.full(2, HALF_PI)
    assert Hyperplane((1.0 / np.pi, 1.0 / np.pi)).crosses_box(low, high)


def test_three_exchanges_of_one_item_triple():
    """The exchanges of items i, j, k, split against each other's regions."""
    scores = np.array([[0.9, 0.2, 0.5], [0.3, 0.8, 0.4], [0.5, 0.5, 0.6]])
    planes = hyperpolar_many(scores, np.array([[0, 1], [1, 2], [0, 2]]))
    assert len(planes) == 3
    for first, second, third in ((0, 1, 2), (1, 2, 0), (0, 2, 1)):
        for sign_a in ("negative", "positive"):
            for sign_b in ("negative", "positive"):
                region = box_region(
                    getattr(planes[first], sign_a)(), getattr(planes[second], sign_b)()
                )
                assert_matches_lp(region, planes[third])
                assert_matches_lp(region, None)


# --------------------------------------------------------------------------- #
# seeded random arrangements
# --------------------------------------------------------------------------- #
def random_lines(seed: int, count: int) -> list[Hyperplane]:
    """Lines through two random points of the angle box (each crosses it)."""
    rng = np.random.default_rng(seed)
    lines = []
    while len(lines) < count:
        p, q = rng.uniform(0.0, HALF_PI, size=(2, 2))
        if abs(np.linalg.det(np.array([p, q]))) > 1e-3:
            lines.append(line_through(p, q))
    return lines


@pytest.mark.parametrize("seed", [0, 1])
def test_random_arrangements_decide_like_the_lp(seed, monkeypatch):
    split_tests = []
    original = Region.intersects_hyperplane

    def recorded(region, hyperplane, margin=1e-12):
        split_tests.append((region, hyperplane))
        return original(region, hyperplane, margin)

    monkeypatch.setattr(Region, "intersects_hyperplane", recorded)
    tree = ArrangementTree(dimension=2)
    for line in random_lines(seed, 30):
        tree.insert(line)
    monkeypatch.undo()
    assert len(split_tests) == tree.split_tests
    leaves = tree.leaf_regions(skip_empty=False)
    verdicts = [assert_matches_lp(region, line) for region, line in split_tests]
    verdicts += [assert_matches_lp(leaf, None) for leaf in leaves]
    # Random lines in general position leave the band alone: the polygon
    # decides nearly everything, and every decision matched the LP above.
    assert verdicts.count(None) <= 0.01 * len(verdicts)


# --------------------------------------------------------------------------- #
# the polygon itself
# --------------------------------------------------------------------------- #
def test_clipped_polygon_equals_the_lazily_built_one():
    for line in random_lines(4, 12):
        region = box_region(*TRIANGLE, line.negative())
        direct = Region(2, list(region.half_spaces))
        assert region._polygon == direct._vertices()


def test_polygon_vertices_satisfy_every_half_space():
    lines = random_lines(5, 8)
    region = Region.whole_space(2)
    for index, line in enumerate(lines):
        side = line.negative() if index % 2 else line.positive()
        candidate = region.with_half_space(side)
        if candidate._vertices():
            region = candidate
    assert region._vertices()
    for vertex in region._vertices():
        assert region.contains(np.asarray(vertex), tolerance=1e-12)


def test_other_dimensions_keep_no_polygon():
    for dimension in (1, 3):
        region = Region.whole_space(dimension)
        plane = Hyperplane((1.0,) * dimension)
        assert region._polygon_meets(plane) is None
        assert region.with_half_space(plane.negative())._polygon is None


# --------------------------------------------------------------------------- #
# representative points: the polygon's Chebyshev centre against the LP's
# --------------------------------------------------------------------------- #
def inscribed_radius(region: Region, point: np.ndarray) -> float:
    """The radius of the largest disc about ``point`` inside the region and the box."""
    a_matrix, b_vector = region.inequality_system()
    rows = (b_vector - a_matrix @ point) / np.linalg.norm(a_matrix, axis=1)
    return float(min(rows.min(initial=np.inf), point.min(), (HALF_PI - point).min()))


def centre(region: Region, route=nullcontext):
    """A fresh copy's interior point on one route, or the error it raised."""
    with route():
        try:
            return Region(region.dimension, list(region.half_spaces)).interior_point()
        except InfeasibleRegionError as error:
            return type(error)


def centre_is_unique(region: Region) -> bool:
    """Check the polygon's centre against the LP's; False where the optimum is a segment."""
    point, reference = centre(region), centre(region, lp_centres)
    if not region._vertices():
        # No solid polygon: both routes solve the LP.
        assert point is reference or np.array_equal(point, reference)
        return True
    radius = inscribed_radius(region, reference)
    assert abs(inscribed_radius(region, point) - radius) <= 1e-12
    if np.linalg.norm(point - reference) <= 1e-9:
        return True
    # Two distinct points at the optimal radius: the optimum is not unique.
    assert region.contains(point, tolerance=0.0) and radius > 0.0
    return False


def regions_of_the_table():
    """Each degenerate case's region, and both sides of its hyperplane."""
    for _case, half_spaces, hyperplane, _expected in DEGENERATE_CASES:
        region = box_region(*half_spaces)
        yield region
        if hyperplane is not None:
            yield from region.split(hyperplane)


def test_degenerate_geometry_centres_match_the_lp():
    verdicts = [centre_is_unique(region) for region in regions_of_the_table()]
    assert len(verdicts) == 42 and all(verdicts)


@pytest.mark.parametrize("seed", [0, 1])
def test_random_arrangement_centres_match_the_lp(seed):
    tree = ArrangementTree(dimension=2)
    for line in random_lines(seed, 30):
        tree.insert(line)
    leaves = tree.leaf_regions()
    assert len(leaves) > 200
    assert all(centre_is_unique(leaf) for leaf in leaves)


def axis_box(low, high) -> Region:
    """The rectangle ``low <= θ <= high`` as four half-spaces."""
    return box_region(
        Hyperplane((1.0 / high[0], 0.0)).negative(),
        Hyperplane((1.0 / low[0], 0.0)).positive(),
        Hyperplane((0.0, 1.0 / high[1])).negative(),
        Hyperplane((0.0, 1.0 / low[1])).positive(),
    )


@pytest.mark.parametrize(
    "low, high",
    [((0.2, 0.1), (1.0, 0.3)), ((0.1, 0.2), (0.3, 1.0)), ((0.25, 0.25), (0.75, 0.75))],
    ids=["wide", "tall", "square"],
)
def test_rectangle_centre_is_the_middle_of_the_optimal_segment(low, high):
    region = axis_box(low, high)
    assert centre_is_unique(region) is (high[0] - low[0] == high[1] - low[1])
    assert np.allclose(centre(region), np.add(low, high) / 2.0, rtol=0.0, atol=1e-12)


def test_tied_data_centres_match_the_lp():
    """Tied scores make rectangles: three of the 61 regions have a segment of centres."""
    tree = ArrangementTree(dimension=2)
    for plane in hyperplanes_for_dataset(tied_dataset(), max_hyperplanes=21):
        tree.insert(plane)
    verdicts = [centre_is_unique(leaf) for leaf in tree.leaf_regions()]
    assert (len(verdicts), verdicts.count(False)) == (61, 3)


def test_other_dimensions_keep_the_lp_centre():
    for dimension in (1, 3):
        region = Region.whole_space(dimension).with_half_space(
            Hyperplane((1.0,) * dimension).negative()
        )
        assert region._polygon_centre(*region.inequality_system()) is None
        assert np.array_equal(centre(region), centre(region, lp_centres))


# --------------------------------------------------------------------------- #
# all-LP differential at the engine seam
# --------------------------------------------------------------------------- #
def fixed_oracle() -> CountingOracle:
    return CountingOracle(ProportionalOracle("race", "African-American", 0.3, max_fraction=0.60))


def dataset(n: int, seed: int):
    return make_compas_like(n=n, seed=seed).project(ATTRIBUTES)


def insert_only_delta(ds, seed: int, n_inserts: int = 2) -> DatasetDelta:
    rng = np.random.default_rng(seed)
    inserts = tuple(
        tuple(float(x) for x in row) for row in rng.random((n_inserts, ds.n_attributes)) + 0.01
    )
    insert_types = {
        attribute: tuple(rng.choice(np.asarray(column), size=n_inserts))
        for attribute, column in ds.types.items()
    }
    return DatasetDelta(inserts=inserts, insert_types=insert_types)


def assert_lp_route_identical(n: int, seed: int, config, n_queries: int = 16):
    polygon = create_engine(dataset(n, seed), fixed_oracle(), config).preprocess()
    with lp_only_regions():
        all_lp = create_engine(dataset(n, seed), fixed_oracle(), config).preprocess()
    assert polygon.oracle.calls == all_lp.oracle.calls
    assert_engines_equivalent(polygon, all_lp, make_weight_grid(n_queries, 3, seed=seed))


LP_ROUTE_CASES = {
    "exact-tree": (40, 3, ExactConfig(max_hyperplanes=20)),
    "approximate-uniform": (120, 5, ApproxConfig(n_cells=25, max_hyperplanes=20)),
    "approximate-angle": (120, 5, ApproxConfig(n_cells=25, max_hyperplanes=20, partition="angle")),
}


@pytest.mark.perf_smoke
@pytest.mark.parametrize("case", sorted(LP_ROUTE_CASES))
def test_all_lp_route_is_bit_identical(case):
    n, seed, config = LP_ROUTE_CASES[case]
    assert_lp_route_identical(n, seed, config)


@pytest.mark.perf_smoke
def test_all_lp_route_is_bit_identical_on_the_flat_arrangement():
    """The flat arrangement, the tree's reference, splits the same regions on both routes."""
    hyperplanes = hyperplanes_for_dataset(dataset(40, 3), max_hyperplanes=12)
    polygon = Arrangement.build(hyperplanes, dimension=2)
    with lp_only_regions():
        all_lp = Arrangement.build(hyperplanes, dimension=2)
        lp_regions = all_lp.non_empty_regions()
    regions = polygon.non_empty_regions()
    assert polygon.split_tests == all_lp.split_tests
    assert len(regions) > len(hyperplanes)
    assert regions == lp_regions
    for region, lp_region in zip(regions, lp_regions):
        assert np.array_equal(region.interior_point(), lp_region.interior_point())


@pytest.mark.perf_smoke
def test_all_lp_route_is_bit_identical_after_an_insert_only_delta():
    ds = dataset(6, 2)
    delta = insert_only_delta(ds, seed=1)
    engines = []
    for route in (nullcontext, lp_only_regions):
        engine = create_engine(dataset(6, 2), fixed_oracle(), ExactConfig())
        with route():
            engine.preprocess()
            report = engine.apply_delta(delta)
        assert report.strategy == "incremental", report.as_dict()
        engines.append(engine)
    assert engines[0].oracle.calls == engines[1].oracle.calls
    assert_engines_equivalent(*engines, make_weight_grid(8, 3, seed=2))


# --------------------------------------------------------------------------- #
# LP-centre differential at the engine seam
# --------------------------------------------------------------------------- #
@contextmanager
def recorded_centres(log: list) -> Iterator[None]:
    """Log ``(half-spaces, point)`` of every interior point asked for in the body."""
    interior_point = Region.interior_point

    def recorded(region):
        point = interior_point(region)
        log.append((tuple(region.half_spaces), point))
        return point

    Region.interior_point = recorded
    try:
        yield
    finally:
        Region.interior_point = interior_point


def meets_a_segment(log: list, lp_log: list) -> bool:
    """Whether the two routes' centres part, at a region whose optimum is a segment.

    Up to that region both builds asked for the same regions in the same
    order.  The LP's centre and the polygon's are two points of its segment,
    and each can order the items differently when the arrangement leaves out
    some exchanges, so the builds may part there.
    """
    for (spaces, point), (lp_spaces, lp_point) in zip(log, lp_log):
        assert spaces == lp_spaces
        if np.linalg.norm(point - lp_point) > 1e-9:
            assert not centre_is_unique(Region(2, list(spaces)))
            return True
    assert len(log) == len(lp_log)
    return False


def lp_centres_differential(build, max_hyperplanes, n_queries: int, seed: int) -> bool:
    """Polygon centres against LP centres at the engine seam; True if a segment was met.

    ``build`` returns a preprocessed engine.  Both builds keep the same
    marked cells or satisfactory regions, and every suggestion passes the
    raw oracle.  Unless some centre's optimum is a segment, both also make
    the same preprocessing and online oracle calls and place every
    representative in the same arrangement region.
    """
    logs: tuple[list, list] = ([], [])
    with recorded_centres(logs[0]):
        polygon = build()
    with lp_centres(), recorded_centres(logs[1]):
        reference = build()
    met_segment = meets_a_segment(*logs)
    assert region_geometry(polygon) == region_geometry(reference)
    grid = make_weight_grid(n_queries, 3, seed=seed)
    answers, online_calls = [], []
    for engine in (polygon, reference):
        before = engine.oracle.calls
        answers.append(engine.suggest_many(grid))
        online_calls.append(engine.oracle.calls - before)
    raw = fixed_oracle().inner
    assert all(raw.evaluate_function(result.function, polygon.dataset) for result in answers[0])
    assert [result.satisfactory for result in answers[0]] == [
        result.satisfactory for result in answers[1]
    ]
    if met_segment:
        return True
    assert polygon.oracle.calls - online_calls[0] == reference.oracle.calls - online_calls[1]
    assert online_calls[0] == online_calls[1]
    planes = exchange_hyperplanes(polygon.dataset, max_hyperplanes)
    signs = representative_sign_vectors(polygon, planes)
    assert len(signs) and np.array_equal(signs, representative_sign_vectors(reference, planes))
    return False


#: The LP-route cases whose builds meet a centre optimum that is a segment:
#: the angle partition's edge cells are thin strips.
SEGMENT_CASES = {"approximate-angle"}


@pytest.mark.perf_smoke
@pytest.mark.parametrize("case", sorted(LP_ROUTE_CASES))
def test_polygon_centres_keep_the_lp_centres_regions(case):
    n, seed, config = LP_ROUTE_CASES[case]
    met_segment = lp_centres_differential(
        lambda: create_engine(dataset(n, seed), fixed_oracle(), config).preprocess(),
        config.max_hyperplanes,
        n_queries=16,
        seed=seed,
    )
    assert met_segment is (case in SEGMENT_CASES)


@pytest.mark.perf_smoke
def test_polygon_centres_keep_the_lp_centres_regions_after_an_insert_only_delta():
    delta = insert_only_delta(dataset(6, 2), seed=1)

    def build():
        engine = create_engine(dataset(6, 2), fixed_oracle(), ExactConfig()).preprocess()
        report = engine.apply_delta(delta)
        assert report.strategy == "incremental", report.as_dict()
        return engine

    assert not lp_centres_differential(build, None, n_queries=8, seed=2)


# --------------------------------------------------------------------------- #
# tied scores: duplicate hyperplanes
# --------------------------------------------------------------------------- #
def tied_dataset() -> Dataset:
    """Scores rounded to quarters: the first 21 hyperplanes hold only 11 distinct ones."""
    source = make_compas_like(n=15, seed=104).project(list(COMPAS_SCORING_ATTRIBUTES[:3]))
    return Dataset(
        np.round(source.scores * 4) / 4, list(source.scoring_attributes), source.types
    )


def distinct_hyperplanes(insertion_key):
    """A ``hyperplanes_for_dataset`` that drops duplicates.

    Of each set of hyperplanes with equal coefficients it keeps the one the
    pipeline inserts first (smallest ``insertion_key``), in enumeration order.
    """

    def build(dataset, item_indices=None, *, max_hyperplanes=None):
        planes = hyperplanes_for_dataset(dataset, item_indices, max_hyperplanes=max_hyperplanes)
        first: dict[tuple[float, ...], Hyperplane] = {}
        for plane in sorted(planes, key=insertion_key):
            first.setdefault(plane.coefficients, plane)
        return [plane for plane in planes if first[plane.coefficients] is plane]

    return build


#: ``(config, the order its pipeline inserts hyperplanes in, oracle calls)``.
TIED_CASES = {
    # SATREGIONS inserts in (j, i) label order, MARKCELL in enumeration order.
    "exact": (ExactConfig(max_hyperplanes=21), lambda plane: plane.label[::-1], 61),
    "approximate": (ApproxConfig(n_cells=64, max_hyperplanes=21), lambda plane: 0, 211),
}


@pytest.mark.parametrize("case", sorted(TIED_CASES))
def test_duplicate_hyperplanes_split_no_region(case, monkeypatch):
    config, insertion_key, oracle_calls = TIED_CASES[case]
    tied = create_engine(tied_dataset(), fixed_oracle(), config).preprocess()
    monkeypatch.setattr(
        "repro.core.multi_dim.hyperplanes_for_dataset", distinct_hyperplanes(insertion_key)
    )
    distinct = create_engine(tied_dataset(), fixed_oracle(), config).preprocess()
    assert (tied.index.n_hyperplanes, distinct.index.n_hyperplanes) == (21, 11)
    assert tied.oracle.calls == distinct.oracle.calls == oracle_calls
    assert_engines_equivalent(tied, distinct, make_weight_grid(16, 3, seed=4), check_payloads=False)
    payloads = [engine.to_payload() for engine in (tied, distinct)]
    for payload in payloads:
        del payload["index"]["n_hyperplanes"]
    assert payloads[0] == payloads[1]


@pytest.mark.perf_smoke
def test_region_smoke():
    """One small exact build against all-LP tests and against LP centres: the
    check_all.py region gate."""
    config = ExactConfig(max_hyperplanes=12)
    assert_lp_route_identical(30, 1, config, n_queries=8)
    assert not lp_centres_differential(
        lambda: create_engine(dataset(30, 1), fixed_oracle(), config).preprocess(),
        config.max_hyperplanes,
        n_queries=8,
        seed=1,
    )
