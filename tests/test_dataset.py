"""Unit tests for repro.data.dataset."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset, normalize_minmax
from repro.exceptions import DatasetError, SchemaError


def make_simple(n: int = 6) -> Dataset:
    scores = np.arange(n * 2, dtype=float).reshape(n, 2)
    groups = np.array(["a", "b"] * (n // 2))
    return Dataset(scores=scores, scoring_attributes=["u", "v"], types={"g": groups})


class TestNormalizeMinmax:
    def test_maps_to_unit_interval(self):
        result = normalize_minmax(np.array([2.0, 4.0, 6.0]))
        assert result.min() == 0.0
        assert result.max() == 1.0
        assert result[1] == pytest.approx(0.5)

    def test_constant_column_maps_to_zero(self):
        result = normalize_minmax(np.array([3.0, 3.0, 3.0]))
        assert np.all(result == 0.0)

    def test_preserves_order(self):
        values = np.array([5.0, 1.0, 3.0])
        result = normalize_minmax(values)
        assert np.array_equal(np.argsort(values), np.argsort(result))


class TestDatasetConstruction:
    def test_basic_properties(self):
        dataset = make_simple()
        assert dataset.n_items == 6
        assert dataset.n_attributes == 2
        assert dataset.type_attributes == ["g"]
        assert len(dataset) == 6

    def test_rejects_non_2d_scores(self):
        with pytest.raises(DatasetError):
            Dataset(scores=np.arange(4.0), scoring_attributes=["a"])

    def test_rejects_negative_scores(self):
        with pytest.raises(DatasetError):
            Dataset(scores=np.array([[1.0, -0.1]]), scoring_attributes=["a", "b"])

    def test_rejects_nan_scores(self):
        with pytest.raises(DatasetError):
            Dataset(scores=np.array([[1.0, np.nan]]), scoring_attributes=["a", "b"])

    def test_rejects_mismatched_attribute_names(self):
        with pytest.raises(SchemaError):
            Dataset(scores=np.ones((2, 2)), scoring_attributes=["only_one"])

    def test_rejects_duplicate_attribute_names(self):
        with pytest.raises(SchemaError):
            Dataset(scores=np.ones((2, 2)), scoring_attributes=["a", "a"])

    def test_rejects_type_column_of_wrong_length(self):
        with pytest.raises(SchemaError):
            Dataset(
                scores=np.ones((3, 2)),
                scoring_attributes=["a", "b"],
                types={"g": ["x", "y"]},
            )

    def test_rejects_empty_dataset(self):
        with pytest.raises(DatasetError):
            Dataset(scores=np.zeros((0, 2)), scoring_attributes=["a", "b"])


class TestColumnsAndItems:
    def test_column_lookup(self):
        dataset = make_simple()
        assert np.array_equal(dataset.column("u"), dataset.scores[:, 0])
        assert np.array_equal(dataset.column("v"), dataset.scores[:, 1])

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            make_simple().column("nope")

    def test_type_column(self):
        dataset = make_simple()
        assert list(dataset.type_column("g")[:2]) == ["a", "b"]

    def test_unknown_type_column_raises(self):
        with pytest.raises(SchemaError):
            make_simple().type_column("nope")

    def test_item_accessor(self):
        dataset = make_simple()
        assert np.array_equal(dataset.item(1), np.array([2.0, 3.0]))

    def test_item_out_of_range(self):
        with pytest.raises(DatasetError):
            make_simple().item(99)

    def test_group_proportions_sum_to_one(self):
        proportions = make_simple().group_proportions("g")
        assert proportions["a"] == pytest.approx(0.5)
        assert sum(proportions.values()) == pytest.approx(1.0)


class TestDuplicateScores:
    @pytest.mark.parametrize(
        "scores, expected",
        [
            ([[0.1, 0.2], [0.2, 0.1], [0.3, 0.3]], False),
            ([[0.1, 0.2], [0.3, 0.3], [0.1, 0.2]], True),
            ([[0.0, 0.5], [0.2, 0.5], [-0.0, 0.5]], True),
            ([[0.4, 0.4]], False),
            ([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], False),
        ],
        ids=["distinct", "repeated-row", "signed-zero", "one-item", "one-column-equal"],
    )
    def test_equal_score_vectors(self, scores, expected):
        dataset = Dataset(scores=np.array(scores), scoring_attributes=["u", "v"])
        assert dataset.has_duplicate_scores is expected

    def test_projection_can_create_duplicates(self):
        dataset = Dataset(
            scores=np.array([[0.1, 0.5], [0.2, 0.5]]), scoring_attributes=["u", "v"]
        )
        assert not dataset.has_duplicate_scores
        assert dataset.project(["v"]).has_duplicate_scores


class TestProjectionAndSubsets:
    def test_project_selects_and_reorders(self):
        dataset = make_simple()
        projected = dataset.project(["v", "u"])
        assert projected.scoring_attributes == ["v", "u"]
        assert np.array_equal(projected.scores[:, 0], dataset.scores[:, 1])
        assert projected.type_attributes == ["g"]

    def test_project_requires_known_attributes(self):
        with pytest.raises(SchemaError):
            make_simple().project(["u", "missing"])

    def test_project_requires_non_empty(self):
        with pytest.raises(SchemaError):
            make_simple().project([])

    def test_take_subsets_rows_and_types(self):
        dataset = make_simple()
        subset = dataset.take([0, 2])
        assert subset.n_items == 2
        assert np.array_equal(subset.scores[1], dataset.scores[2])
        assert subset.type_column("g")[1] == dataset.type_column("g")[2]

    def test_take_rejects_out_of_range(self):
        with pytest.raises(DatasetError):
            make_simple().take([0, 99])

    def test_take_rejects_empty(self):
        with pytest.raises(DatasetError):
            make_simple().take([])

    def test_head(self):
        assert make_simple().head(3).n_items == 3

    def test_head_requires_positive(self):
        with pytest.raises(DatasetError):
            make_simple().head(0)

    def test_sample_is_without_replacement(self):
        dataset = make_simple()
        sample = dataset.sample(4, seed=0)
        assert sample.n_items == 4
        rows = {tuple(row) for row in sample.scores}
        assert len(rows) == 4

    def test_sample_too_large_raises(self):
        with pytest.raises(DatasetError):
            make_simple().sample(100)

    def test_sample_reproducible_with_seed(self):
        dataset = make_simple()
        first = dataset.sample(3, seed=42)
        second = dataset.sample(3, seed=42)
        assert np.array_equal(first.scores, second.scores)


class TestNormalization:
    def test_normalized_in_unit_range(self):
        normalized = make_simple().normalized()
        assert normalized.scores.min() >= 0.0
        assert normalized.scores.max() <= 1.0

    def test_invert_flips_order(self):
        dataset = make_simple()
        normalized = dataset.normalized(invert=["u"])
        original = dataset.column("u")
        flipped = normalized.column("u")
        assert np.array_equal(np.argsort(original), np.argsort(flipped)[::-1])

    def test_invert_unknown_attribute_raises(self):
        with pytest.raises(SchemaError):
            make_simple().normalized(invert=["missing"])


class TestCsvRoundTrip:
    def test_round_trip_preserves_data(self, tmp_path):
        dataset = make_simple()
        path = tmp_path / "data.csv"
        dataset.to_csv(str(path))
        loaded = Dataset.from_csv(str(path))
        assert loaded.n_items == dataset.n_items
        assert loaded.scoring_attributes == list(dataset.scoring_attributes)
        assert np.allclose(loaded.scores, dataset.scores)
        assert list(loaded.type_column("g")) == list(map(str, dataset.type_column("g")))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            Dataset.from_csv(str(tmp_path / "missing.csv"))

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetError):
            Dataset.from_csv(str(path))

    def test_header_only_file_raises(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        with pytest.raises(DatasetError):
            Dataset.from_csv(str(path))
