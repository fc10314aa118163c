"""Tests for the unified query-engine API.

Covers the engine registry and capabilities, the typed config dataclasses,
the deprecation shim of the :class:`FairRankingDesigner` constructor, the
batched ``suggest_many`` identity guarantee on all three engines (the
``perf_smoke``-marked equivalence tests), and the save/load persistence
round-trips — including a sampled exact-mode designer whose restored answers
must be bit-identical to the pre-save ones.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from reference.exchanges import build_exchange_hyperplanes_reference

from repro.core.engine import (
    ApproxConfig,
    ApproxEngine,
    ExactConfig,
    ExactEngine,
    QueryEngine,
    TwoDConfig,
    TwoDEngine,
    available_engines,
    create_engine,
    engine_from_payload,
    engine_name_for_config,
    get_engine,
)
from repro.core.system import FairRankingDesigner
from repro.data.synthetic import make_compas_like
from repro.exceptions import ConfigurationError, NotPreprocessedError
from repro.fairness.proportional import ProportionalOracle, TopKGroupBoundOracle
from repro.geometry.partition import AnglePartition, UniformGridPartition, locate_cells
from repro.io.index_store import (
    STORE_FORMAT,
    load_engine,
    payload_checksum,
    save_engine,
    two_d_index_to_dict,
)


def _random_queries(q: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.abs(rng.normal(size=(q, d))) + 1e-9


@pytest.fixture(scope="module")
def two_d_designer():
    dataset = make_compas_like(n=200, seed=7).project(
        ["c_days_from_compas", "juv_other_count"]
    )
    oracle = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.12
    )
    designer = FairRankingDesigner(dataset, oracle, TwoDConfig()).preprocess()
    if not designer.index.has_satisfactory_region:
        pytest.skip("constraint unsatisfiable for this draw")
    return designer


@pytest.fixture(scope="module")
def md_dataset_oracle():
    dataset = make_compas_like(n=25, seed=26).project(
        ["c_days_from_compas", "juv_other_count", "start"]
    )
    oracle = TopKGroupBoundOracle("race", "African-American", k=8, max_count=5)
    return dataset, oracle


@pytest.fixture(scope="module")
def approx_designer(md_dataset_oracle):
    dataset, oracle = md_dataset_oracle
    return FairRankingDesigner(
        dataset, oracle, ApproxConfig(n_cells=25, max_hyperplanes=25)
    ).preprocess()


@pytest.fixture(scope="module")
def exact_designer(md_dataset_oracle):
    dataset, oracle = md_dataset_oracle
    return FairRankingDesigner(
        dataset, oracle, ExactConfig(max_hyperplanes=20)
    ).preprocess()


# --------------------------------------------------------------------------- #
# registry and capabilities
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_engines_are_registered(self):
        assert set(available_engines()) == {
            "2d",
            "exact",
            "approximate",
            "fallback",
            "instrumented",
            "pool",
        }

    def test_get_engine_dispatches_by_name(self):
        assert get_engine("2d") is TwoDEngine
        assert get_engine("exact") is ExactEngine
        assert get_engine("approximate") is ApproxEngine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            get_engine("bogus")

    def test_config_types_map_to_engine_names(self):
        assert engine_name_for_config(TwoDConfig()) == "2d"
        assert engine_name_for_config(ExactConfig()) == "exact"
        assert engine_name_for_config(ApproxConfig()) == "approximate"
        with pytest.raises(ConfigurationError):
            engine_name_for_config(object())  # type: ignore[arg-type]

    def test_capabilities(self):
        two_d = TwoDEngine.capabilities()
        assert two_d.exact and two_d.batched
        assert two_d.supports_dimension(2) and not two_d.supports_dimension(3)
        exact = ExactEngine.capabilities()
        assert exact.exact and not exact.batched
        assert exact.supports_dimension(5) and not exact.supports_dimension(2)
        approx = ApproxEngine.capabilities()
        assert not approx.exact and approx.batched
        assert approx.supports_dimension(3)

    def test_engines_satisfy_the_protocol(self, two_d_designer, exact_designer, approx_designer):
        for designer in (two_d_designer, exact_designer, approx_designer):
            assert isinstance(designer.engine, QueryEngine)

    def test_create_engine_validates_dimensionality(self, md_dataset_oracle):
        dataset, oracle = md_dataset_oracle
        with pytest.raises(ConfigurationError):
            create_engine(dataset, oracle, TwoDConfig())

    def test_engine_rejects_mismatched_config(self, md_dataset_oracle):
        dataset, oracle = md_dataset_oracle
        with pytest.raises(ConfigurationError):
            ExactEngine(dataset, oracle, ApproxConfig())

    def test_approx_config_validates_fields(self):
        """Out-of-range fields of every config raise at construction, naming the field."""
        invalid = [
            (ApproxConfig, {"n_cells": 0}),
            (ApproxConfig, {"partition": "weird"}),
            (TwoDConfig, {"sample_size": 0}),
            (ExactConfig, {"sample_size": 0}),
            (ApproxConfig, {"sample_size": -3}),
            (ExactConfig, {"max_hyperplanes": -1}),
            (ApproxConfig, {"max_hyperplanes": -1}),
            (ExactConfig, {"convex_layer_k": 0}),
            (ApproxConfig, {"convex_layer_k": 0}),
            (TwoDConfig, {"preprocess_workers": 0}),
            (ExactConfig, {"preprocess_workers": 0}),
            (ApproxConfig, {"preprocess_workers": 0}),
        ]
        for config_type, values in invalid:
            (field,) = values
            with pytest.raises(ConfigurationError, match=field):
                config_type(**values)
        # The boundary values themselves are legal.
        TwoDConfig(sample_size=1)
        ExactConfig(max_hyperplanes=0, convex_layer_k=1, sample_size=1)
        ApproxConfig(max_hyperplanes=0, convex_layer_k=1)


def _reference_hyperplanes(dataset, item_indices=None, *, max_hyperplanes=None):
    """Stand-in for ``hyperplanes_for_dataset`` built by the scalar per-pair reference."""
    return build_exchange_hyperplanes_reference(dataset, item_indices)[:max_hyperplanes]


@pytest.mark.perf_smoke
class TestHyperplaneMethodEquivalence:
    """Both d >= 3 engines must preprocess identically from the batched
    production kernel and from the scalar per-pair reference in ``tests/reference/``."""

    def test_exact_engine_batched_matches_scalar(self, md_dataset_oracle, monkeypatch):
        dataset, oracle = md_dataset_oracle
        batched = FairRankingDesigner(
            dataset, oracle, ExactConfig(max_hyperplanes=20)
        ).preprocess()
        monkeypatch.setattr(
            "repro.core.multi_dim.hyperplanes_for_dataset", _reference_hyperplanes
        )
        scalar = FairRankingDesigner(
            dataset, oracle, ExactConfig(max_hyperplanes=20)
        ).preprocess()
        assert batched.index.n_hyperplanes == scalar.index.n_hyperplanes
        assert batched.index.oracle_calls == scalar.index.oracle_calls
        assert [r.representative_angles for r in batched.index.satisfactory_regions] == [
            r.representative_angles for r in scalar.index.satisfactory_regions
        ]
        queries = _random_queries(4, 3, seed=2)
        assert batched.suggest_many(queries) == scalar.suggest_many(queries)

    def test_approx_engine_batched_matches_scalar(self, md_dataset_oracle, monkeypatch):
        dataset, oracle = md_dataset_oracle
        batched = FairRankingDesigner(
            dataset, oracle, ApproxConfig(n_cells=25, max_hyperplanes=25)
        ).preprocess()
        monkeypatch.setattr("repro.core.approx.hyperplanes_for_dataset", _reference_hyperplanes)
        scalar = FairRankingDesigner(
            dataset, oracle, ApproxConfig(n_cells=25, max_hyperplanes=25)
        ).preprocess()
        assert batched.index.oracle_calls == scalar.index.oracle_calls
        assert batched.index.marked == scalar.index.marked
        batched_angles = batched.index.assigned_angles
        scalar_angles = scalar.index.assigned_angles
        assert len(batched_angles) == len(scalar_angles)
        for left, right in zip(batched_angles, scalar_angles):
            assert (left is None) == (right is None)
            if left is not None:
                assert np.array_equal(left, right)
        queries = _random_queries(4, 3, seed=3)
        assert batched.suggest_many(queries) == scalar.suggest_many(queries)


# --------------------------------------------------------------------------- #
# the facade
# --------------------------------------------------------------------------- #
class TestFacade:
    def test_plain_construction_does_not_warn(self, two_d_designer):
        dataset, oracle = two_d_designer.dataset, two_d_designer.oracle
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            designer = FairRankingDesigner(dataset, oracle)
        assert designer.mode == "2d"

    def test_config_construction_does_not_warn(self, md_dataset_oracle):
        dataset, oracle = md_dataset_oracle
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            designer = FairRankingDesigner(dataset, oracle, ApproxConfig(n_cells=9))
        assert designer.mode == "approximate"
        assert designer.config.n_cells == 9

    def test_suggest_dispatches_without_isinstance_asserts(self, approx_designer):
        # Real dispatch: the engine method, not an assert-guarded branch in
        # the facade, answers the query (so `python -O` cannot mis-dispatch).
        result = approx_designer.suggest([0.4, 0.3, 0.3])
        assert result.function.dimension == 3
        assert type(approx_designer.engine).suggest is not type(
            approx_designer.engine
        ).suggest_many

    def test_capabilities_exposed_on_facade(self, exact_designer):
        assert exact_designer.capabilities().name == "exact"

    def test_index_requires_preprocess(self, md_dataset_oracle):
        dataset, oracle = md_dataset_oracle
        designer = FairRankingDesigner(dataset, oracle, ApproxConfig(n_cells=9))
        with pytest.raises(NotPreprocessedError):
            _ = designer.index


# --------------------------------------------------------------------------- #
# batched answering: suggest_many == looped suggest, on every engine
# --------------------------------------------------------------------------- #
@pytest.mark.perf_smoke
class TestSuggestManyEquivalence:
    def test_two_d_batch_matches_loop(self, two_d_designer):
        queries = _random_queries(64, 2, seed=1)
        batched = two_d_designer.suggest_many(queries)
        looped = [two_d_designer.suggest(row) for row in queries]
        assert batched == looped

    def test_approx_batch_matches_loop(self, approx_designer):
        queries = _random_queries(24, 3, seed=2)
        batched = approx_designer.suggest_many(queries)
        looped = [approx_designer.suggest(row) for row in queries]
        assert batched == looped

    def test_exact_batch_matches_loop(self, exact_designer):
        queries = _random_queries(4, 3, seed=3)
        batched = exact_designer.suggest_many(queries)
        looped = [exact_designer.suggest(row) for row in queries]
        assert batched == looped

    def test_two_d_batch_suggestions_are_bit_identical(self, two_d_designer):
        queries = _random_queries(64, 2, seed=4)
        for batched, looped in zip(
            two_d_designer.suggest_many(queries),
            [two_d_designer.suggest(row) for row in queries],
        ):
            assert batched.function.weights == looped.function.weights
            assert batched.angular_distance == looped.angular_distance
            assert batched.satisfactory == looped.satisfactory

    def test_shape_validation(self, two_d_designer):
        with pytest.raises(ConfigurationError):
            two_d_designer.suggest_many(np.ones((4, 3)))
        with pytest.raises(ConfigurationError):
            two_d_designer.suggest_many(np.ones(4))


class TestLocateCells:
    def test_uniform_grid_matches_scalar_locate(self):
        partition = UniformGridPartition(dimension=2, n_cells=49)
        angles = _random_queries(100, 3, seed=5)
        matrix = np.stack([np.clip(row[:2], 0.0, np.pi / 2) for row in angles])
        batched = locate_cells(partition, matrix)
        assert batched.tolist() == [partition.locate(row) for row in matrix]

    def test_angle_partition_fallback_matches_scalar_locate(self):
        partition = AnglePartition(dimension=2, n_cells=30)
        rng = np.random.default_rng(6)
        matrix = rng.uniform(0.0, np.pi / 2, size=(50, 2))
        batched = locate_cells(partition, matrix)
        assert batched.tolist() == [partition.locate(row) for row in matrix]


# --------------------------------------------------------------------------- #
# persistence round-trips
# --------------------------------------------------------------------------- #
class TestPersistence:
    def test_two_d_round_trip_is_bit_identical(self, two_d_designer, tmp_path):
        path = tmp_path / "engine.json"
        two_d_designer.save(path)
        loaded = FairRankingDesigner.load(path, two_d_designer.oracle)
        assert loaded.mode == "2d"
        assert loaded.is_preprocessed
        queries = _random_queries(32, 2, seed=7)
        assert loaded.suggest_many(queries) == two_d_designer.suggest_many(queries)

    def test_approx_round_trip_is_bit_identical(self, approx_designer, tmp_path):
        path = tmp_path / "engine.json"
        approx_designer.save(path)
        loaded = FairRankingDesigner.load(path, approx_designer.oracle)
        assert loaded.mode == "approximate"
        assert loaded.config == approx_designer.config
        queries = _random_queries(16, 3, seed=8)
        assert loaded.suggest_many(queries) == approx_designer.suggest_many(queries)

    def test_exact_round_trip_is_bit_identical(self, exact_designer, tmp_path):
        path = tmp_path / "engine.json"
        exact_designer.save(path)
        loaded = FairRankingDesigner.load(path, exact_designer.oracle)
        assert loaded.mode == "exact"
        queries = _random_queries(3, 3, seed=9)
        assert loaded.suggest_many(queries) == exact_designer.suggest_many(queries)

    def test_sampled_exact_round_trip_restores_the_sample(self, tmp_path):
        dataset = make_compas_like(n=60, seed=5).project(
            ["c_days_from_compas", "juv_other_count", "start"]
        )
        oracle = TopKGroupBoundOracle("race", "African-American", k=10, max_count=7)
        designer = FairRankingDesigner(
            dataset, oracle, ExactConfig(max_hyperplanes=20, sample_size=20)
        ).preprocess()
        path = tmp_path / "engine.json"
        designer.save(path)
        loaded = FairRankingDesigner.load(path, oracle)
        # The restored preprocessing dataset is the 20-item sample...
        assert loaded.dataset.n_items == 20
        assert np.array_equal(
            loaded.engine.preprocessing_dataset.scores,
            designer.engine.preprocessing_dataset.scores,
        )
        # ...so the loaded designer answers a query batch bit-identically
        # without re-preprocessing.
        queries = _random_queries(4, 3, seed=10)
        before = designer.suggest_many(queries)
        after = loaded.suggest_many(queries)
        assert before == after
        for first, second in zip(before, after):
            assert first.function.weights == second.function.weights
            assert first.angular_distance == second.angular_distance

    def test_engine_payload_round_trip(self, two_d_designer):
        payload = two_d_designer.engine.to_payload()
        rebuilt = engine_from_payload(payload, two_d_designer.oracle)
        assert rebuilt.name == "2d"
        assert rebuilt.config == two_d_designer.config

    def test_unknown_config_keys_warn_but_load(self, two_d_designer):
        payload = two_d_designer.engine.to_payload()
        payload["config"]["future_knob"] = 7
        payload["config"]["another_knob"] = "x"
        with pytest.warns(UserWarning, match="another_knob, future_knob"):
            rebuilt = engine_from_payload(payload, two_d_designer.oracle)
        assert rebuilt.config == two_d_designer.config

    def test_known_config_keys_do_not_warn(self, two_d_designer):
        payload = two_d_designer.engine.to_payload()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine_from_payload(payload, two_d_designer.oracle)

    def test_save_requires_preprocessing(self, md_dataset_oracle, tmp_path):
        dataset, oracle = md_dataset_oracle
        designer = FairRankingDesigner(dataset, oracle, ApproxConfig(n_cells=9))
        with pytest.raises(NotPreprocessedError):
            designer.save(tmp_path / "engine.json")

    def test_load_rejects_bare_index_files(self, two_d_designer, tmp_path):
        """An enveloped bare index payload, as the retired ``save_index`` wrote it."""
        payload = two_d_index_to_dict(two_d_designer.index)
        envelope = {
            "format": STORE_FORMAT,
            "algorithm": "sha256",
            "digest": payload_checksum(payload),
            "payload": payload,
        }
        path = tmp_path / "index.json"
        path.write_text(json.dumps(envelope), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="repro.engine/v1"):
            load_engine(path, two_d_designer.oracle)

    def test_load_rejects_garbage(self, tmp_path, two_d_designer):
        path = tmp_path / "garbage.json"
        path.write_text("{\"format\": \"nope\"}", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_engine(path, two_d_designer.oracle)
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_engine(path, two_d_designer.oracle)

    def test_save_engine_load_engine_helpers(self, approx_designer, tmp_path):
        path = tmp_path / "engine.json"
        save_engine(approx_designer.engine, path)
        engine = load_engine(path, approx_designer.oracle)
        assert engine.name == "approximate"
        queries = _random_queries(8, 3, seed=11)
        assert engine.suggest_many(queries) == approx_designer.suggest_many(queries)


# --------------------------------------------------------------------------- #
# session integration
# --------------------------------------------------------------------------- #
class TestSessionBatch:
    def test_propose_many_records_each_query(self, two_d_designer):
        from repro.core.session import DesignSession

        session = DesignSession(two_d_designer)
        queries = _random_queries(5, 2, seed=12)
        records = session.propose_many(queries, note="batch")
        assert [record.step for record in records] == [1, 2, 3, 4, 5]
        assert session.n_proposals == 5
        looped = [two_d_designer.suggest(row) for row in queries]
        assert [record.result for record in records] == looped
        payload = session.to_dict()
        assert payload["mode"] == "2d"
        assert "config" in payload
