"""Tests for SATREGIONS / MDBASELINE (exact multi-dimensional pipeline)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from differential import entry_fingerprint, make_weight_grid, slsqp_only_regions

import repro.geometry.hyperplane as hyperplane_module
from repro.core.engine import ExactConfig, create_engine
from repro.core.multi_dim import (
    MDExactIndex,
    SatRegions,
    _closest_point_in_region,
    _region_candidates,
    md_baseline,
)
from repro.data.synthetic import COMPAS_SCORING_ATTRIBUTES, make_compas_like
from repro.exceptions import (
    GeometryError,
    NoSatisfactoryFunctionError,
    NotPreprocessedError,
)
from repro.fairness.oracle import CallableOracle, CountingOracle
from repro.fairness.proportional import ProportionalOracle, TopKGroupBoundOracle
from repro.geometry.angles import (
    angular_distance_angles,
    checked_ray,
    ray_distance,
    to_angles,
    to_weights,
)
from repro.geometry.arrangement import Arrangement
from repro.geometry.hyperplane import Region
from repro.io.index_store import load_engine, save_engine
from repro.obs.trace import TraceRecorder, activated
from repro.ranking.queries import random_queries
from repro.ranking.scoring import LinearScoringFunction


@pytest.fixture(scope="module")
def md_setup():
    """A small 3-attribute dataset with a top-k race constraint and its exact index."""
    dataset = make_compas_like(n=25, seed=5).project(
        ["c_days_from_compas", "juv_other_count", "start"]
    )
    oracle = TopKGroupBoundOracle("race", "African-American", k=8, max_count=5)
    builder = SatRegions(dataset, oracle, max_hyperplanes=40)
    index = builder.run()
    return dataset, oracle, builder, index


class TestSatRegions:
    def test_requires_three_attributes(self, paper_2d_dataset, balanced_topk_oracle):
        with pytest.raises(GeometryError):
            SatRegions(paper_2d_dataset, balanced_topk_oracle)

    def test_index_statistics(self, md_setup):
        _, _, _, index = md_setup
        assert index.n_hyperplanes > 0
        assert index.n_regions >= index.n_hyperplanes + 1 or index.n_regions > 0
        assert index.oracle_calls == index.n_regions

    def test_satisfactory_representatives_really_satisfy(self, md_setup):
        dataset, oracle, _, index = md_setup
        assert index.has_satisfactory_region
        for satisfactory in index.satisfactory_regions:
            assert oracle.evaluate_function(satisfactory.representative, dataset)

    def test_representative_lies_in_its_region(self, md_setup):
        _, _, _, index = md_setup
        for satisfactory in index.satisfactory_regions:
            assert satisfactory.region.contains(
                np.asarray(satisfactory.representative_angles), tolerance=1e-6
            )

    def test_tree_and_flat_construction_agree_on_labels(self):
        """The tree build keeps exactly the regions the flat Arrangement finds satisfactory."""
        dataset = make_compas_like(n=15, seed=6).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        oracle = TopKGroupBoundOracle("race", "African-American", k=5, max_count=3)
        builder = SatRegions(dataset, oracle, max_hyperplanes=15)
        with_tree = builder.run()
        flat = Arrangement.build(builder.hyperplanes_, dimension=2).non_empty_regions()
        satisfactory = []
        for region in flat:
            function = LinearScoringFunction(tuple(to_weights(region.interior_point())))
            if oracle.evaluate_function(function, dataset):
                satisfactory.append((region, function))
        assert with_tree.n_regions == len(flat)
        assert with_tree.has_satisfactory_region
        kept = [(entry.region, entry.representative) for entry in with_tree.satisfactory_regions]
        assert kept == satisfactory

    def test_max_hyperplanes_caps_construction(self):
        dataset = make_compas_like(n=20, seed=7).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        oracle = CallableOracle(lambda ordering, data: True, "always")
        index = SatRegions(dataset, oracle, max_hyperplanes=5).run()
        assert index.n_hyperplanes == 5

    def test_convex_layer_filter_reduces_hyperplanes(self):
        dataset = make_compas_like(n=30, seed=8).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        oracle = CallableOracle(lambda ordering, data: True, "always")
        full = SatRegions(dataset, oracle).build_hyperplanes()
        filtered = SatRegions(dataset, oracle, convex_layer_k=3).build_hyperplanes()
        assert len(filtered) <= len(full)


class TestMDBaseline:
    def test_satisfactory_query_returned_unchanged(self, md_setup):
        dataset, oracle, _, index = md_setup
        satisfactory_query = None
        for query in random_queries(3, 40, seed=2):
            if oracle.evaluate_function(query, dataset):
                satisfactory_query = query
                break
        assert satisfactory_query is not None
        result = md_baseline(dataset, oracle, index, satisfactory_query)
        assert result.satisfactory
        assert result.angular_distance == 0.0
        assert result.function is satisfactory_query

    def test_unsatisfactory_query_gets_satisfactory_suggestion(self, md_setup):
        dataset, oracle, _, index = md_setup
        for query in random_queries(3, 40, seed=3):
            if oracle.evaluate_function(query, dataset):
                continue
            result = md_baseline(dataset, oracle, index, query)
            assert not result.satisfactory
            assert result.angular_distance > 0.0
            assert oracle.evaluate_function(result.function, dataset)

    def test_suggestion_not_far_from_best_representative(self, md_setup):
        """The optimised suggestion is never worse than the best region representative."""
        dataset, oracle, _, index = md_setup
        from repro.geometry.angles import angular_distance

        for query in random_queries(3, 20, seed=4):
            if oracle.evaluate_function(query, dataset):
                continue
            result = md_baseline(dataset, oracle, index, query)
            representative_best = min(
                angular_distance(query.as_array(), region.representative.as_array())
                for region in index.satisfactory_regions
            )
            assert result.angular_distance <= representative_best + 1e-6

    def test_radius_preserved(self, md_setup):
        dataset, oracle, _, index = md_setup
        for query in random_queries(3, 30, seed=5):
            if oracle.evaluate_function(query, dataset):
                continue
            scaled = LinearScoringFunction(tuple(2.5 * query.as_array()))
            result = md_baseline(dataset, oracle, index, scaled)
            assert np.linalg.norm(result.function.as_array()) == pytest.approx(2.5, rel=1e-6)
            break

    def test_not_preprocessed_raises(self, md_setup):
        dataset, oracle, _, _ = md_setup
        empty = MDExactIndex(dimension=2)
        with pytest.raises(NotPreprocessedError):
            md_baseline(dataset, oracle, empty, LinearScoringFunction((1.0, 1.0, 1.0)))

    def test_unsatisfiable_constraint_raises(self):
        dataset = make_compas_like(n=12, seed=9).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        oracle = CallableOracle(lambda ordering, data: False, "never")
        index = SatRegions(dataset, oracle, max_hyperplanes=10).run()
        assert not index.has_satisfactory_region
        with pytest.raises(NoSatisfactoryFunctionError):
            md_baseline(dataset, oracle, index, LinearScoringFunction((1.0, 1.0, 1.0)))

    def test_dimension_mismatch_raises(self, md_setup):
        dataset, oracle, _, index = md_setup
        with pytest.raises(GeometryError):
            md_baseline(dataset, oracle, index, LinearScoringFunction((1.0, 1.0)))


class TestOracleCallAccounting:
    def test_one_call_per_region(self):
        dataset = make_compas_like(n=15, seed=10).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        counting = CountingOracle(TopKGroupBoundOracle("race", "African-American", k=5, max_count=3))
        index = SatRegions(dataset, counting, max_hyperplanes=12).run()
        assert counting.calls == index.n_regions


def _fm1_index(n: int, seed: int, cap: int):
    dataset = make_compas_like(n=n, seed=seed).project(list(COMPAS_SCORING_ATTRIBUTES[:3]))
    oracle = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.10
    )
    return dataset, oracle, SatRegions(dataset, oracle, max_hyperplanes=cap).run()


#: Seeded ``(n, dataset seed, hyperplane cap)`` grids with 8–13 satisfactory
#: regions and a majority of unsatisfactory queries.
POLYGON_GRIDS = [(40, 11, 12), (60, 6, 12), (100, 3, 12)]

#: Weight vectors with zero entries: their angles lie on the angle box's edges.
BOX_EDGE_QUERIES = [
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (1.0, 1.0, 0.0),
    (1.0, 0.0, 1.0),
    (0.0, 1.0, 1.0),
]


def _grid_id(grid) -> str:
    return "n{}-seed{}-cap{}".format(*grid)


def _reference_distances(index, query_angles):
    """Every satisfactory region's nearest-point distance on the SLSQP route."""
    return [
        _closest_point_in_region(satisfactory, query_angles)[1]
        for satisfactory in index.satisfactory_regions
    ]


@pytest.mark.perf_smoke
class TestPolygonRoute:
    """At d = 3 the region polygons answer the nearest-point step; SLSQP is the reference."""

    @pytest.mark.parametrize("grid", POLYGON_GRIDS, ids=_grid_id)
    def test_nearest_points_are_never_farther_than_slsqp(self, grid):
        dataset, oracle, index = _fm1_index(*grid)
        assert all(region.region.polygon for region in index.satisfactory_regions)
        unsatisfactory = [
            query.as_array()
            for query in random_queries(3, 30, seed=grid[1])
            if not oracle.evaluate_function(query, dataset)
        ]
        # A point inside each polygon (its vertex mean) and the box edges.
        inside = [
            to_weights(np.mean(region.region.polygon, axis=0))
            for region in index.satisfactory_regions
        ]
        queries = unsatisfactory + inside + [np.asarray(weights) for weights in BOX_EDGE_QUERIES]
        assert len(unsatisfactory) >= 10
        for weights in queries:
            query_angles = to_angles(weights)
            candidates, n_edges, minimize_calls = _region_candidates(index, query_angles)
            assert minimize_calls == 0
            assert n_edges == sum(
                len(region.region.polygon) for region in index.satisfactory_regions
            )
            reference = _reference_distances(index, query_angles)
            for (distance, point, satisfactory), slsqp in zip(candidates, reference):
                assert satisfactory.region.contains(point)
                assert distance <= slsqp + 1e-7
                assert angular_distance_angles(point, query_angles) <= slsqp + 1e-7
        for weights, region in zip(inside, index.satisfactory_regions):
            query_angles = to_angles(weights)
            candidates, _, _ = _region_candidates(index, query_angles)
            ((distance, point, _),) = [entry for entry in candidates if entry[2] is region]
            assert distance == 0.0 and np.array_equal(point, query_angles)

    @pytest.mark.parametrize("grid", POLYGON_GRIDS, ids=_grid_id)
    def test_suggestions_pass_the_oracle_and_are_as_close_as_slsqp(self, grid):
        dataset, oracle, index = _fm1_index(*grid)
        queries = [
            query
            for query in random_queries(3, 30, seed=grid[1] + 1)
            if not oracle.evaluate_function(query, dataset)
        ] + [LinearScoringFunction(weights) for weights in BOX_EDGE_QUERIES]
        polygon = [md_baseline(dataset, oracle, index, query) for query in queries]
        with slsqp_only_regions():
            reference = [md_baseline(dataset, oracle, index, query) for query in queries]
        answered = [result for result in polygon if not result.satisfactory]
        assert len(answered) >= 10
        for result in answered:
            assert oracle.evaluate_function(result.function, dataset)
        mean = np.mean([result.angular_distance for result in polygon])
        assert mean <= np.mean([result.angular_distance for result in reference]) + 1e-6

    def test_degenerate_polygon_takes_the_slsqp_route(self):
        dataset, oracle, index = _fm1_index(*POLYGON_GRIDS[0])
        flat = index.satisfactory_regions[2]
        degenerate = MDExactIndex(
            dimension=index.dimension,
            satisfactory_regions=[
                replace(flat, region=Region(2, list(flat.region.half_spaces), _polygon=()))
                if satisfactory is flat
                else satisfactory
                for satisfactory in index.satisfactory_regions
            ],
            n_hyperplanes=index.n_hyperplanes,
            n_regions=index.n_regions,
            oracle_calls=index.oracle_calls,
        )
        query = next(
            query
            for query in random_queries(3, 30, seed=3)
            if not oracle.evaluate_function(query, dataset)
        )
        query_angles = to_angles(query.as_array())
        recorder = TraceRecorder()
        with activated(recorder):
            md_baseline(dataset, oracle, degenerate, query)
        (distances,) = [
            dict(span.attributes)
            for span in recorder.spans
            if span.name == "query.region_distances"
        ]
        assert distances["minimize_calls"] == 1
        assert distances["n_edges"] == sum(
            len(region.region.polygon) for region in index.satisfactory_regions
        ) - len(flat.region.polygon)
        candidates, _, _ = _region_candidates(degenerate, query_angles)
        polygon_candidates, _, _ = _region_candidates(index, query_angles)
        point, distance = _closest_point_in_region(flat, query_angles)
        assert candidates[2][0] == distance and np.array_equal(candidates[2][1], point)
        for position in (0, 1, 3):
            assert candidates[position][0] == polygon_candidates[position][0]
            assert np.array_equal(candidates[position][1], polygon_candidates[position][1])

    def test_suggest_many_is_the_suggest_loop_and_survives_save_load(self, tmp_path):
        dataset = make_compas_like(n=60, seed=6).project(list(COMPAS_SCORING_ATTRIBUTES[:3]))
        oracle = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
        engine = create_engine(dataset, oracle, ExactConfig(max_hyperplanes=12)).preprocess()
        grid = np.vstack([make_weight_grid(24, 3, seed=6), BOX_EDGE_QUERIES])
        batch = [entry_fingerprint(entry) for entry in engine.suggest_many(grid)]
        loop = [
            entry_fingerprint(engine.suggest(LinearScoringFunction(tuple(row))))
            for row in grid.tolist()
        ]
        assert batch == loop
        assert sum(1 for entry in batch if not entry[2]) >= 10
        path = tmp_path / "exact.json"
        save_engine(engine, path)
        loaded = load_engine(path, oracle)
        assert loaded.index._edges is None and loaded.index._rays is None
        assert [entry_fingerprint(entry) for entry in loaded.suggest_many(grid)] == batch
        assert "edges" not in path.read_text(encoding="utf-8")
        # The rebuilt representative rays give angular_distance_angles bit for bit.
        rays = loaded.index._rays
        assert len(rays) == len(loaded.index.satisfactory_regions) > 0
        for query_angles in (to_angles(row) for row in grid):
            query_ray = checked_ray(to_weights(query_angles))
            for angles, ray in rays:
                assert ray_distance(ray, query_ray) == angular_distance_angles(
                    angles, query_angles
                )


def test_loaded_d4_exact_engine_solves_no_linear_program_online(tmp_path, monkeypatch):
    """A loaded engine starts SLSQP from the persisted representatives, not a fresh centre."""
    dataset = make_compas_like(n=100, seed=3).project(list(COMPAS_SCORING_ATTRIBUTES[:4]))
    oracle = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.10
    )
    engine = create_engine(dataset, oracle, ExactConfig(max_hyperplanes=8)).preprocess()
    queries = [
        query
        for query in random_queries(4, 12, seed=4)
        if not oracle.evaluate_function(query, dataset)
    ][:4]
    assert queries and engine.index.has_satisfactory_region
    built = [entry_fingerprint(engine.suggest(query)) for query in queries]
    path = tmp_path / "exact4.json"
    save_engine(engine, path)
    loaded = load_engine(path, oracle)
    assert loaded.index._rays is None
    centres = []
    solve = hyperplane_module.chebyshev_center
    monkeypatch.setattr(
        hyperplane_module,
        "chebyshev_center",
        lambda *args, **kwargs: centres.append(args) or solve(*args, **kwargs),
    )
    assert [entry_fingerprint(loaded.suggest(query)) for query in queries] == built
    assert centres == []
    assert len(loaded.index._rays) == len(loaded.index.satisfactory_regions)
