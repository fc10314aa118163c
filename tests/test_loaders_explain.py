"""Tests for the real-data CSV loaders and the repair-explanation report."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from repro.core.explain import TopKDelta, explain_repair, format_explanation
from repro.core.result import SuggestionResult
from repro.data.dataset import Dataset
from repro.data.loaders import (
    COMPAS_COLUMN_MAP,
    DOT_COLUMN_MAP,
    load_compas_csv,
    load_dot_csv,
    load_numeric_csv,
)
from repro.exceptions import ConfigurationError, DatasetError, SchemaError
from repro.ranking.scoring import LinearScoringFunction


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# --------------------------------------------------------------------------- #
# generic numeric CSV loader
# --------------------------------------------------------------------------- #
class TestLoadNumericCsv:
    def test_basic_load_and_normalisation(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["a", "b", "group"], [[1, 10, "x"], [3, 30, "y"], [2, 20, "x"]])
        report = load_numeric_csv(path, ["a", "b"], ["group"])
        assert report.n_rows_read == 3
        assert report.n_rows_kept == 3
        assert report.fraction_kept == 1.0
        assert report.dataset.scoring_attributes == ["a", "b"]
        assert report.dataset.column("a").max() == pytest.approx(1.0)
        assert report.dataset.column("a").min() == pytest.approx(0.0)
        assert list(report.dataset.type_column("group")) == ["x", "y", "x"]

    def test_rows_with_missing_values_are_dropped(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["a", "b"], [[1, 2], ["", 3], [4, "not a number"], [5, 6]])
        report = load_numeric_csv(path, ["a", "b"])
        assert report.n_rows_read == 4
        assert report.n_rows_kept == 2
        assert report.fraction_kept == pytest.approx(0.5)

    def test_negative_values_are_shifted_to_non_negative(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["delay"], [[-10], [0], [30]])
        report = load_numeric_csv(path, ["delay"], normalize=False)
        assert report.dataset.column("delay").min() == pytest.approx(0.0)
        assert report.dataset.column("delay").max() == pytest.approx(40.0)

    def test_inverted_columns_flip_the_ordering(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["age", "merit"], [[20, 5], [40, 5], [60, 5]])
        report = load_numeric_csv(path, ["age", "merit"], invert=["age"])
        ages = report.dataset.column("age")
        # The youngest row now has the highest normalised value.
        assert ages[0] == pytest.approx(1.0)
        assert ages[-1] == pytest.approx(0.0)

    def test_unknown_column_is_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["a"], [[1]])
        with pytest.raises(SchemaError):
            load_numeric_csv(path, ["missing"])

    def test_invert_must_be_a_scoring_column(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["a"], [[1]])
        with pytest.raises(SchemaError):
            load_numeric_csv(path, ["a"], invert=["b"])

    def test_invert_requires_normalisation(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["a"], [[1]])
        with pytest.raises(SchemaError):
            load_numeric_csv(path, ["a"], invert=["a"], normalize=False)

    def test_empty_selection_and_unusable_file_are_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["a"], [[""], ["x"]])
        with pytest.raises(SchemaError):
            load_numeric_csv(path, [])
        with pytest.raises(DatasetError):
            load_numeric_csv(path, ["a"])

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError):
            load_numeric_csv(path, ["a"])


# --------------------------------------------------------------------------- #
# COMPAS and DOT loaders
# --------------------------------------------------------------------------- #
def compas_like_csv(path, n: int = 30):
    rng = np.random.default_rng(0)
    header = list(COMPAS_COLUMN_MAP["scoring"]) + list(COMPAS_COLUMN_MAP["types"]) + ["extra"]
    rows = []
    for index in range(n):
        age = int(rng.integers(18, 70))
        rows.append(
            [
                int(rng.integers(0, 1000)),      # c_days_from_compas
                int(rng.integers(0, 5)),         # juv_other_count
                int(rng.integers(-5, 100)),      # days_b_screening_arrest
                int(rng.integers(0, 400)),       # start
                int(rng.integers(0, 800)),       # end
                age,                             # age
                int(rng.integers(0, 20)),        # priors_count
                "Male" if index % 3 else "Female",
                "African-American" if index % 2 else "Caucasian",
                "ignored",
            ]
        )
    write_csv(path, header, rows)
    return rows


class TestCompasLoader:
    def test_loads_and_derives_age_attributes(self, tmp_path):
        path = tmp_path / "compas.csv"
        compas_like_csv(path, n=30)
        report = load_compas_csv(path)
        dataset = report.dataset
        assert report.n_rows_kept == 30
        assert list(dataset.scoring_attributes) == list(COMPAS_COLUMN_MAP["scoring"])
        assert set(dataset.type_attributes) == {"sex", "race", "age_binary", "age_bucketized"}
        assert set(np.unique(dataset.type_column("age_binary"))) <= {
            "35_or_younger",
            "over_35",
        }
        assert set(np.unique(dataset.type_column("age_bucketized"))) <= {
            "30_or_younger",
            "31_to_40",
            "over_40",
        }
        # Normalised scores live in [0, 1].
        assert dataset.scores.min() >= 0.0
        assert dataset.scores.max() <= 1.0

    def test_age_is_inverted(self, tmp_path):
        path = tmp_path / "compas.csv"
        rows = compas_like_csv(path, n=30)
        report = load_compas_csv(path)
        raw_ages = np.array([row[5] for row in rows], dtype=float)
        normalised = report.dataset.column("age")
        # The oldest individual gets the smallest normalised age score.
        assert normalised[int(np.argmax(raw_ages))] == pytest.approx(0.0)
        assert normalised[int(np.argmin(raw_ages))] == pytest.approx(1.0)

    def test_age_threshold_is_configurable(self, tmp_path):
        path = tmp_path / "compas.csv"
        compas_like_csv(path, n=30)
        strict = load_compas_csv(path, age_threshold=25)
        lax = load_compas_csv(path, age_threshold=60)
        strict_young = int(np.sum(strict.dataset.type_column("age_binary") == "35_or_younger"))
        lax_young = int(np.sum(lax.dataset.type_column("age_binary") == "35_or_younger"))
        assert strict_young <= lax_young


class TestDotLoader:
    def test_loads_and_renames_columns(self, tmp_path):
        path = tmp_path / "dot.csv"
        header = list(DOT_COLUMN_MAP["scoring"]) + list(DOT_COLUMN_MAP["types"])
        rows = [
            [5, 12, 8, "DL"],
            [-3, -7, 4, "AA"],
            [60, 75, 15, "WN"],
            ["", 10, 5, "UA"],
        ]
        write_csv(path, header, rows)
        report = load_dot_csv(path)
        dataset = report.dataset
        assert report.n_rows_read == 4
        assert report.n_rows_kept == 3
        assert list(dataset.scoring_attributes) == ["departure_delay", "arrival_delay", "taxi_in"]
        assert dataset.type_attributes == ["carrier"]
        # Delays are inverted: the flight with the largest delay scores lowest.
        assert dataset.column("arrival_delay")[2] == pytest.approx(0.0)


# --------------------------------------------------------------------------- #
# repair explanations
# --------------------------------------------------------------------------- #
@pytest.fixture
def explain_dataset() -> Dataset:
    scores = np.array(
        [
            [0.9, 0.1],
            [0.8, 0.2],
            [0.7, 0.3],
            [0.1, 0.9],
            [0.2, 0.8],
            [0.3, 0.7],
        ]
    )
    groups = ["a", "a", "a", "b", "b", "b"]
    return Dataset(scores, ["x", "y"], types={"group": groups})


def make_result(query_weights, suggested_weights, satisfactory=False) -> SuggestionResult:
    query = LinearScoringFunction(query_weights)
    suggestion = LinearScoringFunction(suggested_weights)
    return SuggestionResult(
        query=query,
        satisfactory=satisfactory,
        function=suggestion,
        angular_distance=query.angular_distance_to(suggestion),
    )


class TestExplainRepair:
    def test_topk_delta_identifies_entering_and_leaving_items(self, explain_dataset):
        result = make_result((1.0, 0.0), (0.0, 1.0))
        explanation = explain_repair(explain_dataset, result, k=3)
        assert explanation.k == 3
        assert set(explanation.delta.entering) == {3, 4, 5}
        assert set(explanation.delta.leaving) == {0, 1, 2}
        assert explanation.delta.staying == 0
        assert explanation.delta.turnover == pytest.approx(1.0)

    def test_no_change_for_identical_functions(self, explain_dataset):
        result = make_result((0.5, 0.5), (0.5, 0.5))
        explanation = explain_repair(explain_dataset, result, k=3)
        assert explanation.delta.entering == ()
        assert explanation.delta.leaving == ()
        assert explanation.delta.staying == 3
        assert all(change == pytest.approx(0.0) for change in explanation.weight_changes.values())

    def test_weight_changes_are_scale_invariant(self, explain_dataset):
        small = explain_repair(explain_dataset, make_result((1.0, 1.0), (1.0, 3.0)), k=3)
        large = explain_repair(explain_dataset, make_result((10.0, 10.0), (2.0, 6.0)), k=3)
        for attribute in ("x", "y"):
            assert small.weight_changes[attribute] == pytest.approx(
                large.weight_changes[attribute]
            )

    def test_group_counts_shift_with_the_repair(self, explain_dataset):
        result = make_result((1.0, 0.0), (0.0, 1.0))
        explanation = explain_repair(explain_dataset, result, k=3)
        assert explanation.group_counts_before["group"] == {"a": 3}
        assert explanation.group_counts_after["group"] == {"b": 3}

    def test_fractional_k(self, explain_dataset):
        result = make_result((1.0, 0.0), (0.0, 1.0))
        explanation = explain_repair(explain_dataset, result, k=0.5)
        assert explanation.k == 3

    def test_dimension_mismatch_rejected(self, explain_dataset):
        result = make_result((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        with pytest.raises(ConfigurationError):
            explain_repair(explain_dataset, result, k=3)

    def test_turnover_of_empty_delta(self):
        delta = TopKDelta(k=0, entering=(), leaving=(), staying=0)
        assert delta.turnover == 0.0


class TestFormatExplanation:
    def test_satisfactory_result_short_circuits(self, explain_dataset):
        result = make_result((0.5, 0.5), (0.5, 0.5), satisfactory=True)
        text = format_explanation(explain_repair(explain_dataset, result, k=3))
        assert "already satisfy" in text

    def test_report_mentions_weights_turnover_and_groups(self, explain_dataset):
        result = make_result((1.0, 0.0), (0.0, 1.0))
        text = format_explanation(explain_repair(explain_dataset, result, k=3))
        assert "weight changes" in text
        assert "turnover" in text
        assert "entering" in text and "leaving" in text
        assert "group counts" in text

    def test_item_lists_are_truncated(self, explain_dataset):
        result = make_result((1.0, 0.0), (0.0, 1.0))
        text = format_explanation(explain_repair(explain_dataset, result, k=3), max_items=1)
        assert "..." in text

    def test_end_to_end_with_designer_suggestion(
        self, shared_approx_index, shared_compas_3d, shared_race_oracle_3d
    ):
        from repro.core.approx import md_online

        answer = md_online(
            shared_compas_3d,
            shared_race_oracle_3d,
            shared_approx_index,
            LinearScoringFunction((0.9, 0.05, 0.05)),
        )
        explanation = explain_repair(shared_compas_3d, answer, k=0.3)
        text = format_explanation(explanation)
        assert isinstance(text, str) and text
