"""Tests for the §5 approximation pipeline (CELLPLANE× / MARKCELL / CELLCOLORING / MDONLINE)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.approx import ApproximatePreprocessor, MDApproxIndex, md_online
from repro.core.multi_dim import SatRegions, md_baseline
from repro.data.synthetic import make_compas_like
from repro.exceptions import (
    ConfigurationError,
    GeometryError,
    NoSatisfactoryFunctionError,
    NotPreprocessedError,
)
from repro.fairness.oracle import CallableOracle
from repro.fairness.proportional import ProportionalOracle, TopKGroupBoundOracle
from repro.geometry.angles import to_weights
from repro.geometry.partition import UniformGridPartition, theorem6_bound
from repro.obs.trace import TraceRecorder, activated
from repro.ranking.queries import random_queries
from repro.ranking.scoring import LinearScoringFunction


@pytest.fixture(scope="module")
def approx_setup():
    dataset = make_compas_like(n=30, seed=11).project(
        ["c_days_from_compas", "juv_other_count", "start"]
    )
    oracle = TopKGroupBoundOracle("race", "African-American", k=9, max_count=6)
    preprocessor = ApproximatePreprocessor(dataset, oracle, n_cells=36, max_hyperplanes=30)
    index = preprocessor.run()
    return dataset, oracle, index


class TestPreprocessing:
    def test_requires_three_attributes(self, paper_2d_dataset, balanced_topk_oracle):
        with pytest.raises(GeometryError):
            ApproximatePreprocessor(paper_2d_dataset, balanced_topk_oracle)

    def test_validates_n_cells(self, paper_3d_dataset, balanced_topk_oracle):
        with pytest.raises(ConfigurationError):
            ApproximatePreprocessor(paper_3d_dataset, balanced_topk_oracle, n_cells=0)

    def test_validates_partition_kind(self, paper_3d_dataset, balanced_topk_oracle):
        with pytest.raises(ConfigurationError):
            ApproximatePreprocessor(paper_3d_dataset, balanced_topk_oracle, partition="weird")

    def test_partition_object_refused(self, paper_3d_dataset, balanced_topk_oracle):
        """A partition is named, as ``ApproxConfig.partition`` names it."""
        ready_made = UniformGridPartition(2, 32)
        with pytest.raises(ConfigurationError, match="'uniform' or 'angle'"):
            ApproximatePreprocessor(paper_3d_dataset, balanced_topk_oracle, partition=ready_made)

    def test_index_covers_every_cell(self, approx_setup):
        _, _, index = approx_setup
        assert len(index.assigned_angles) == index.n_cells
        assert len(index.marked) == index.n_cells

    @pytest.mark.parametrize("n_items", [1, 2, 40])
    @pytest.mark.parametrize("oracle_kind", ["always", "never", "fm1"])
    @pytest.mark.parametrize("partition", ["uniform", "angle"])
    @pytest.mark.parametrize("d", [3, 4])
    def test_every_cell_assigned_when_satisfiable(self, d, partition, oracle_kind, n_items):
        """CELLCOLORING assigns every cell once one is marked, and none otherwise.

        The table reaches n <= 2 and constraints that every ordering or no
        ordering satisfies; FM1 with no slack marks few cells, so the
        colouring assigns most of them.
        """
        dataset = make_compas_like(n=n_items, seed=4).project(
            ["c_days_from_compas", "juv_other_count", "start", "priors_count"][:d]
        )
        oracle = {
            "always": lambda: CallableOracle(lambda ordering, data: True, "always"),
            "never": lambda: CallableOracle(lambda ordering, data: False, "never"),
            "fm1": lambda: ProportionalOracle.at_most_share_plus_slack(
                dataset, "race", "African-American", k=0.3, slack=0.0
            ),
        }[oracle_kind]()
        index = ApproximatePreprocessor(
            dataset, oracle, n_cells=16, partition=partition, max_hyperplanes=6
        ).run()
        assigned = [angles is not None for angles in index.assigned_angles]
        assert len(assigned) == index.n_cells
        assert all(assigned) or not any(assigned)
        assert any(assigned) == any(index.marked)
        if oracle_kind == "always":
            assert all(index.marked)
        if oracle_kind == "never":
            assert not any(assigned)

    def test_marked_cells_carry_functions_inside_the_cell(self, approx_setup):
        _, _, index = approx_setup
        cells = index.partition.cells()
        for cell in cells:
            if index.marked[cell.index]:
                assert cell.contains(index.assigned_angles[cell.index], tolerance=1e-6)

    def test_assigned_functions_are_satisfactory(self, approx_setup):
        dataset, oracle, index = approx_setup
        for angles in index.assigned_angles:
            function = LinearScoringFunction(tuple(to_weights(np.asarray(angles))))
            assert oracle.evaluate_function(function, dataset)

    def test_timings_recorded(self, approx_setup):
        """Each pipeline stage is timed by exactly one ``preprocess.*`` stage span."""
        dataset, oracle, _ = approx_setup
        recorder = TraceRecorder()
        with activated(recorder):
            ApproximatePreprocessor(dataset, oracle, n_cells=36, max_hyperplanes=30).run()
        names = [span.name for span in recorder.spans]
        seconds = {span.name: span.duration for span in recorder.spans}
        stages = (
            "preprocess.hyperplane_construction",
            "preprocess.cell_plane_assignment",
            "preprocess.mark_cells",
            "preprocess.cell_coloring",
        )
        assert all(names.count(stage) == 1 for stage in stages)
        total = sum(seconds[stage] for stage in stages)
        assert total >= seconds["preprocess.mark_cells"]
        assert seconds["preprocess.mark_cells"] > 0.0
        assert seconds["preprocess.hyperplane_construction"] > 0.0

    def test_approximation_bound_matches_theorem6(self, approx_setup):
        _, _, index = approx_setup
        assert index.approximation_bound() == pytest.approx(
            theorem6_bound(index.n_cells, 3)
        )

    def test_adaptive_partition_backend(self):
        dataset = make_compas_like(n=15, seed=12).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        oracle = CallableOracle(lambda ordering, data: True, "always")
        index = ApproximatePreprocessor(
            dataset, oracle, n_cells=25, partition="angle", max_hyperplanes=10
        ).run()
        assert index.has_satisfactory_function

    def test_unsatisfiable_constraint_leaves_cells_unassigned(self):
        dataset = make_compas_like(n=12, seed=13).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        oracle = CallableOracle(lambda ordering, data: False, "never")
        index = ApproximatePreprocessor(dataset, oracle, n_cells=16, max_hyperplanes=10).run()
        assert not index.has_satisfactory_function
        assert index.n_marked_cells == 0


class TestMDOnline:
    def test_satisfactory_query_returned_unchanged(self, approx_setup):
        dataset, oracle, index = approx_setup
        for query in random_queries(3, 40, seed=14):
            if oracle.evaluate_function(query, dataset):
                result = md_online(dataset, oracle, index, query)
                assert result.satisfactory
                assert result.angular_distance == 0.0
                return
        pytest.skip("no satisfactory random query found for this configuration")

    def test_repaired_queries_are_satisfactory(self, approx_setup):
        dataset, oracle, index = approx_setup
        repaired = 0
        for query in random_queries(3, 25, seed=15):
            result = md_online(dataset, oracle, index, query)
            if not result.satisfactory:
                repaired += 1
                assert oracle.evaluate_function(result.function, dataset)
        assert repaired > 0

    def test_theorem6_guarantee_against_exact_baseline(self, approx_setup):
        """MDONLINE answers are within the Theorem 6 bound of the exact optimum."""
        dataset, oracle, index = approx_setup
        exact_index = SatRegions(dataset, oracle, max_hyperplanes=30).run()
        bound = index.approximation_bound()
        for query in random_queries(3, 10, seed=16):
            if oracle.evaluate_function(query, dataset):
                continue
            approximate = md_online(dataset, oracle, index, query)
            exact = md_baseline(dataset, oracle, exact_index, query)
            assert approximate.angular_distance <= exact.angular_distance + bound + 1e-6

    def test_radius_preserved(self, approx_setup):
        dataset, oracle, index = approx_setup
        for query in random_queries(3, 20, seed=17):
            if oracle.evaluate_function(query, dataset):
                continue
            scaled = LinearScoringFunction(tuple(4.0 * query.as_array()))
            result = md_online(dataset, oracle, index, scaled)
            assert np.linalg.norm(result.function.as_array()) == pytest.approx(4.0, rel=1e-6)
            return

    def test_dimension_mismatch(self, approx_setup):
        dataset, oracle, index = approx_setup
        with pytest.raises(GeometryError):
            md_online(dataset, oracle, index, LinearScoringFunction((1.0, 1.0)))

    def test_not_preprocessed(self, approx_setup):
        dataset, oracle, _ = approx_setup
        empty = MDApproxIndex(partition=UniformGridPartition(2, 4))
        with pytest.raises(NotPreprocessedError):
            md_online(dataset, oracle, empty, LinearScoringFunction((1.0, 1.0, 1.0)))

    def test_unsatisfiable_raises(self):
        dataset = make_compas_like(n=10, seed=18).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        oracle = CallableOracle(lambda ordering, data: False, "never")
        index = ApproximatePreprocessor(dataset, oracle, n_cells=9, max_hyperplanes=6).run()
        with pytest.raises(NoSatisfactoryFunctionError):
            md_online(dataset, oracle, index, LinearScoringFunction((1.0, 1.0, 1.0)))
