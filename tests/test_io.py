"""Tests for the persistence layer (:mod:`repro.io`)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from differential import assert_engines_equivalent, make_weight_grid, payload_bytes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import md_online
from repro.core.engine import (
    ApproxConfig,
    ExactConfig,
    TwoDConfig,
    create_engine,
    engine_from_payload,
)
from repro.core.multi_dim import SatRegions, md_baseline
from repro.core.two_dim import AngularInterval, TwoDIndex
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError, DatasetError, GeometryError
from repro.fairness.oracle import CountingOracle
from repro.geometry.angles import HALF_PI
from repro.io import (
    approx_index_from_dict,
    approx_index_to_dict,
    dataset_from_dict,
    dataset_to_dict,
    exact_index_from_dict,
    exact_index_to_dict,
    load_dataset_json,
    load_engine,
    save_dataset_json,
    save_engine,
    two_d_index_from_dict,
    two_d_index_to_dict,
)
from repro.io.index_store import payload_checksum
from repro.ranking.scoring import LinearScoringFunction


# --------------------------------------------------------------------------- #
# dataset JSON round trip
# --------------------------------------------------------------------------- #
class TestDatasetJson:
    def test_round_trip_preserves_scores_types_and_name(self, small_compas_3d, tmp_path):
        path = tmp_path / "dataset.json"
        save_dataset_json(small_compas_3d, path)
        loaded = load_dataset_json(path)
        assert loaded.name == small_compas_3d.name
        assert loaded.scoring_attributes == list(small_compas_3d.scoring_attributes)
        assert np.allclose(loaded.scores, small_compas_3d.scores)
        assert loaded.type_attributes == small_compas_3d.type_attributes
        assert np.array_equal(
            loaded.type_column("race"), small_compas_3d.type_column("race")
        )

    def test_dict_round_trip_without_files(self, paper_2d_dataset):
        rebuilt = dataset_from_dict(dataset_to_dict(paper_2d_dataset))
        assert np.allclose(rebuilt.scores, paper_2d_dataset.scores)

    def test_from_dict_rejects_wrong_format(self):
        with pytest.raises(DatasetError):
            dataset_from_dict({"format": "something-else"})

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(DatasetError):
            dataset_from_dict({"format": "repro.dataset/v1", "name": "x"})

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DatasetError):
            load_dataset_json(path)

    def test_payload_is_json_serialisable(self, paper_3d_dataset):
        json.dumps(dataset_to_dict(paper_3d_dataset))


# --------------------------------------------------------------------------- #
# 2-D index
# --------------------------------------------------------------------------- #
class TestTwoDIndexStore:
    def test_round_trip_preserves_intervals_and_counters(self, shared_two_d_index):
        _dataset, _oracle, index = shared_two_d_index
        rebuilt = two_d_index_from_dict(two_d_index_to_dict(index))
        assert rebuilt.n_exchanges == index.n_exchanges
        assert rebuilt.oracle_calls == index.oracle_calls
        assert len(rebuilt.intervals) == len(index.intervals)
        for original, copy in zip(index.intervals, rebuilt.intervals):
            assert copy.start == pytest.approx(original.start)
            assert copy.end == pytest.approx(original.end)

    def test_round_trip_answers_queries_identically(self, shared_two_d_index):
        _dataset, _oracle, index = shared_two_d_index
        rebuilt = two_d_index_from_dict(two_d_index_to_dict(index))
        query = LinearScoringFunction((0.9, 0.1))
        original_answer = index.query(query)
        rebuilt_answer = rebuilt.query(query)
        assert rebuilt_answer.satisfactory == original_answer.satisfactory
        assert rebuilt_answer.angular_distance == pytest.approx(
            original_answer.angular_distance
        )

    def test_from_dict_rejects_wrong_kind(self, shared_two_d_index):
        _dataset, _oracle, index = shared_two_d_index
        payload = two_d_index_to_dict(index)
        payload["index_kind"] = "approx"
        with pytest.raises(ConfigurationError):
            two_d_index_from_dict(payload)

    @settings(max_examples=30, deadline=None)
    @given(
        boundaries=st.lists(
            st.floats(min_value=0.0, max_value=float(HALF_PI), allow_nan=False),
            min_size=2,
            max_size=10,
            unique=True,
        )
    )
    def test_property_interval_round_trip(self, boundaries):
        values = sorted(boundaries)
        intervals = [
            AngularInterval(start, end) for start, end in zip(values[:-1], values[1:])
        ]
        index = TwoDIndex(intervals=intervals, n_exchanges=len(values), oracle_calls=7)
        rebuilt = two_d_index_from_dict(two_d_index_to_dict(index))
        assert len(rebuilt.intervals) == len(intervals)
        for original, copy in zip(intervals, rebuilt.intervals):
            assert copy.start == pytest.approx(original.start)
            assert copy.end == pytest.approx(original.end)


# --------------------------------------------------------------------------- #
# exact index
# --------------------------------------------------------------------------- #
class TestExactIndexStore:
    @pytest.fixture(scope="class")
    def exact_setup(self):
        from repro.data.synthetic import make_compas_like
        from repro.fairness.proportional import ProportionalOracle

        dataset = make_compas_like(n=25, seed=5).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        oracle = ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=8, slack=0.10
        )
        index = SatRegions(dataset, oracle, max_hyperplanes=25).run()
        return dataset, oracle, index

    def test_round_trip_preserves_regions(self, exact_setup):
        _dataset, _oracle, index = exact_setup
        rebuilt = exact_index_from_dict(exact_index_to_dict(index))
        assert rebuilt.dimension == index.dimension
        assert rebuilt.n_regions == index.n_regions
        assert len(rebuilt.satisfactory_regions) == len(index.satisfactory_regions)
        for original, copy in zip(index.satisfactory_regions, rebuilt.satisfactory_regions):
            assert copy.representative_angles == pytest.approx(original.representative_angles)
            assert len(copy.region.half_spaces) == len(original.region.half_spaces)

    def test_round_trip_answers_queries_identically(self, exact_setup):
        dataset, oracle, index = exact_setup
        if not index.has_satisfactory_region:
            pytest.skip("constraint unsatisfiable in this draw")
        rebuilt = exact_index_from_dict(exact_index_to_dict(index))
        query = LinearScoringFunction((0.8, 0.1, 0.1))
        original = md_baseline(dataset, oracle, index, query)
        copy = md_baseline(dataset, oracle, rebuilt, query)
        assert copy.satisfactory == original.satisfactory
        assert copy.angular_distance == pytest.approx(original.angular_distance, abs=1e-6)

    def test_payload_is_json_serialisable(self, exact_setup):
        _dataset, _oracle, index = exact_setup
        json.dumps(exact_index_to_dict(index))


# --------------------------------------------------------------------------- #
# approximate index
# --------------------------------------------------------------------------- #
class TestApproxIndexStore:
    def test_round_trip_preserves_assignments(self, shared_approx_index):
        payload = approx_index_to_dict(shared_approx_index)
        rebuilt = approx_index_from_dict(payload)
        assert rebuilt.n_cells == shared_approx_index.n_cells
        assert rebuilt.n_marked_cells == shared_approx_index.n_marked_cells
        for original, copy in zip(shared_approx_index.assigned_angles, rebuilt.assigned_angles):
            if original is None:
                assert copy is None
            else:
                assert np.allclose(original, copy)

    def test_round_trip_answers_queries_identically(
        self, shared_approx_index, shared_compas_3d, shared_race_oracle_3d
    ):
        rebuilt = approx_index_from_dict(approx_index_to_dict(shared_approx_index))
        query = LinearScoringFunction((0.6, 0.2, 0.2))
        original = md_online(shared_compas_3d, shared_race_oracle_3d, shared_approx_index, query)
        copy = md_online(shared_compas_3d, shared_race_oracle_3d, rebuilt, query)
        assert copy.satisfactory == original.satisfactory
        assert copy.angular_distance == pytest.approx(original.angular_distance)

    def test_dimension_mismatch_rejected(self, shared_compas_3d, shared_race_oracle_3d):
        """The engine rejects a partition that does not fit its preprocessing dataset."""
        payload = create_engine(
            shared_compas_3d, shared_race_oracle_3d, ApproxConfig(n_cells=9, max_hyperplanes=10)
        ).preprocess().to_payload()
        dataset = payload["preprocessing_dataset"]
        dataset["scoring_attributes"].append("extra")
        dataset["scores"] = [row + [0.5] for row in dataset["scores"]]
        with pytest.raises(ConfigurationError, match="partition has dimension 2"):
            engine_from_payload(payload, shared_race_oracle_3d)

    def test_tampered_cell_count_rejected(self, shared_approx_index):
        payload = approx_index_to_dict(shared_approx_index)
        payload["assigned_angles"] = payload["assigned_angles"][:-1]
        with pytest.raises(GeometryError):
            approx_index_from_dict(payload)

    def test_payload_is_json_serialisable(self, shared_approx_index):
        json.dumps(approx_index_to_dict(shared_approx_index))


# --------------------------------------------------------------------------- #
# engine payload bytes across runs and versions
# --------------------------------------------------------------------------- #
def _preprocessed(dataset, oracle, config):
    return create_engine(dataset, CountingOracle(oracle), config).preprocess()


class TestEnginePayloadBytes:
    def test_identical_approximate_preprocesses_give_identical_bytes(
        self, shared_compas_3d, shared_race_oracle_3d
    ):
        config = ApproxConfig(n_cells=8, max_hyperplanes=10)
        first = _preprocessed(shared_compas_3d, shared_race_oracle_3d, config)
        second = _preprocessed(shared_compas_3d, shared_race_oracle_3d, config)
        assert payload_bytes(first) == payload_bytes(second)

    @pytest.mark.parametrize(
        "config, removed_key, removed_value",
        [
            (TwoDConfig(), "use_incremental", True),
            (ExactConfig(max_hyperplanes=12), "hyperplane_method", "batched"),
            (ApproxConfig(n_cells=8, max_hyperplanes=10), "hyperplane_method", "batched"),
            (TwoDConfig(), "staleness_fraction", 0.5),
            (ExactConfig(max_hyperplanes=12), "staleness_fraction", 0.5),
            (ApproxConfig(n_cells=8, max_hyperplanes=10), "staleness_fraction", 0.5),
        ],
        ids=[
            "2d",
            "exact",
            "approximate",
            "2d-staleness",
            "exact-staleness",
            "approximate-staleness",
        ],
    )
    def test_payload_with_a_removed_config_key_still_loads(
        self, config, removed_key, removed_value, shared_compas_3d, shared_race_oracle_3d, tmp_path
    ):
        """A file carrying a config key (and approximate ``timings``) this version dropped."""
        dataset = shared_compas_3d
        if isinstance(config, TwoDConfig):
            dataset = dataset.project(["c_days_from_compas", "juv_other_count"])
        path = tmp_path / "engine.json"
        save_engine(_preprocessed(dataset, shared_race_oracle_3d, config), path)
        document = json.loads(path.read_text(encoding="utf-8"))
        payload = document["payload"]
        payload["config"][removed_key] = removed_value
        if payload["engine"] == "approximate":
            payload["index"]["timings"] = {
                "hyperplane_construction": 0.01,
                "cell_plane_assignment": 0.02,
                "mark_cells": 0.3,
                "cell_coloring": 0.004,
            }
        document["digest"] = payload_checksum(payload)
        path.write_text(json.dumps(document), encoding="utf-8")

        with pytest.warns(UserWarning) as caught:
            loaded = load_engine(path, CountingOracle(shared_race_oracle_3d))
        messages = [str(r.message) for r in caught if issubclass(r.category, UserWarning)]
        assert len(messages) == 1
        assert removed_key in messages[0]
        fresh = _preprocessed(dataset, shared_race_oracle_3d, config)
        assert_engines_equivalent(loaded, fresh, make_weight_grid(12, dataset.n_attributes))
