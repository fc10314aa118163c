"""Tests for interactive design sessions and re-preprocessing on new data."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import ApproxConfig, ExactConfig, TwoDConfig, create_engine
from repro.core.maintenance import DatasetDelta
from repro.core.approx import MDApproxIndex
from repro.core.sampling import (
    SampleValidationReport,
    _distinct_rows,
    validate_index_on_dataset,
)
from repro.core.session import DesignSession
from repro.core.system import FairRankingDesigner
from repro.data.dataset import Dataset
from repro.data.synthetic import COMPAS_SCORING_ATTRIBUTES, make_compas_like
from repro.exceptions import ConfigurationError, NotPreprocessedError, ScoringFunctionError
from repro.fairness.oracle import CallableOracle, CountingOracle
from repro.fairness.proportional import ProportionalOracle
from repro.geometry.angles import HALF_PI, to_weights
from repro.geometry.partition import UniformGridPartition
from repro.ranking.scoring import LinearScoringFunction


@pytest.fixture(scope="module")
def session_designer(shared_compas_3d, shared_race_oracle_3d):
    designer = FairRankingDesigner(
        shared_compas_3d, shared_race_oracle_3d, ApproxConfig(n_cells=64, max_hyperplanes=60)
    )
    designer.preprocess()
    return designer


# --------------------------------------------------------------------------- #
# DesignSession
# --------------------------------------------------------------------------- #
class TestDesignSession:
    def test_requires_a_designer(self):
        with pytest.raises(ConfigurationError):
            DesignSession("not a designer")  # type: ignore[arg-type]

    def test_preprocesses_lazily(self, shared_compas_3d, shared_race_oracle_3d):
        designer = FairRankingDesigner(
            shared_compas_3d,
            shared_race_oracle_3d,
            ApproxConfig(n_cells=16, max_hyperplanes=30),
        )
        assert not designer.is_preprocessed
        DesignSession(designer)
        assert designer.is_preprocessed

    def test_propose_records_history_in_order(self, session_designer):
        session = DesignSession(session_designer)
        session.propose([0.5, 0.3, 0.2], note="first")
        session.propose([0.2, 0.4, 0.4])
        assert session.n_proposals == 2
        assert [record.step for record in session.history] == [1, 2]
        assert session.history[0].note == "first"

    def test_proposal_suggestions_are_satisfactory(self, session_designer):
        session = DesignSession(session_designer)
        record = session.propose([0.9, 0.05, 0.05])
        assert session_designer.oracle.evaluate_function(
            record.suggestion, session_designer.dataset
        )

    def test_accept_defaults_to_latest(self, session_designer):
        session = DesignSession(session_designer)
        session.propose([0.5, 0.3, 0.2])
        session.propose([0.3, 0.3, 0.4])
        accepted = session.accept()
        assert accepted.step == 2
        assert session.accepted_record.step == 2
        assert session.accepted_function is not None

    def test_accept_specific_step_and_reaccept(self, session_designer):
        session = DesignSession(session_designer)
        session.propose([0.5, 0.3, 0.2])
        session.propose([0.3, 0.3, 0.4])
        session.accept(step=1)
        assert session.accepted_record.step == 1
        session.accept(step=2)
        assert session.accepted_record.step == 2
        assert sum(1 for record in session.history if record.accepted) == 1

    def test_accept_without_proposals_fails(self, session_designer):
        session = DesignSession(session_designer)
        with pytest.raises(ConfigurationError):
            session.accept()

    def test_accept_out_of_range_fails(self, session_designer):
        session = DesignSession(session_designer)
        session.propose([0.5, 0.3, 0.2])
        with pytest.raises(ConfigurationError):
            session.accept(step=5)

    def test_summary_counts_and_distances(self, session_designer):
        session = DesignSession(session_designer)
        results = [
            session.propose(weights)
            for weights in ([0.5, 0.3, 0.2], [0.8, 0.1, 0.1], [0.2, 0.2, 0.6])
        ]
        summary = session.summary()
        assert summary.n_proposals == 3
        expected_satisfactory = sum(1 for record in results if record.result.satisfactory)
        assert summary.n_already_satisfactory == expected_satisfactory
        repairs = [
            record.result.angular_distance
            for record in results
            if not record.result.satisfactory
        ]
        if repairs:
            assert summary.max_repair_distance == pytest.approx(max(repairs))
            assert summary.mean_repair_distance == pytest.approx(float(np.mean(repairs)))
        else:
            assert summary.max_repair_distance == 0.0

    def test_transcript_mentions_every_step(self, session_designer):
        session = DesignSession(session_designer)
        session.propose([0.5, 0.3, 0.2])
        session.propose([0.2, 0.4, 0.4])
        session.accept()
        transcript = session.format_transcript()
        assert "step 1" in transcript and "step 2" in transcript
        assert "ACCEPTED" in transcript

    def test_empty_transcript(self, session_designer):
        assert "empty" in DesignSession(session_designer).format_transcript()

    def test_to_dict_and_save(self, session_designer, tmp_path):
        session = DesignSession(session_designer)
        session.propose([0.5, 0.3, 0.2], note="note")
        session.accept()
        payload = session.to_dict()
        assert payload["summary"]["n_proposals"] == 1
        assert payload["records"][0]["note"] == "note"
        path = tmp_path / "session.json"
        session.save(path)
        reloaded = json.loads(path.read_text(encoding="utf-8"))
        assert reloaded["summary"]["accepted_step"] == 1

    def test_works_with_two_d_designer(self, shared_two_d_index):
        dataset, oracle, _index = shared_two_d_index
        designer = FairRankingDesigner(dataset, oracle, TwoDConfig())
        session = DesignSession(designer)
        record = session.propose([0.7, 0.3])
        assert record.result.angular_distance >= 0.0


# --------------------------------------------------------------------------- #
# §5.4 validation: re-checking an index against a dataset
# --------------------------------------------------------------------------- #
def _distinct_assigned_angles(index) -> list[np.ndarray]:
    """The scalar dedup: each assigned function against every one kept before it."""
    distinct: list[np.ndarray] = []
    for angles in index.assigned_angles:
        if angles is not None and not any(np.allclose(angles, seen) for seen in distinct):
            distinct.append(np.asarray(angles))
    return distinct


def _scalar_report(index, dataset, oracle) -> SampleValidationReport:
    """§5.4 validation by the scalar dedup and one oracle call per function."""
    distinct = _distinct_assigned_angles(index)
    verdicts = [
        oracle.evaluate_function(LinearScoringFunction(tuple(to_weights(angles))), dataset)
        for angles in distinct
    ]
    return SampleValidationReport(len(distinct), sum(verdicts))


def near_duplicate_index(seed: int) -> MDApproxIndex:
    """Assigned angles perturbed around a few bases at the scale of ``np.allclose``'s test.

    Steps of 1e-8 and 1e-6 to 6e-6 relative make chains whose neighbours are
    close and whose ends are not; exact repeats, ``-0.0`` and empty cells
    are mixed in.
    """
    rng = np.random.default_rng(seed)
    bases = np.vstack([rng.uniform(0.0, HALF_PI, size=(6, 2)), [[0.0, 0.5], [-0.0, 0.5]]])
    steps = np.array([0.0, 1e-8, 1e-6, 2e-6, 3e-6, 4.5e-6, 6e-6])
    rows = bases[rng.integers(len(bases), size=300)]
    rows = rows + rng.choice(steps, size=rows.shape) * rng.choice([-1.0, 1.0], size=rows.shape) * (
        np.abs(rows) + 1e-3
    )
    rows[-60:] = rows[:60]
    assigned = [None if index % 11 == 0 else row for index, row in enumerate(rows)]
    return MDApproxIndex(partition=UniformGridPartition(2, len(assigned)), assigned_angles=assigned)


class TestIndexValidation:
    def test_valid_on_the_indexed_dataset(
        self, shared_approx_index, shared_compas_3d, shared_race_oracle_3d
    ):
        report = validate_index_on_dataset(
            shared_approx_index, shared_compas_3d, shared_race_oracle_3d
        )
        assert report.n_functions_checked == len(_distinct_assigned_angles(shared_approx_index))
        assert report.n_satisfactory == report.n_functions_checked
        assert report.all_satisfactory
        assert report.fraction_satisfactory == 1.0

    def test_invalid_under_an_impossible_oracle(self, shared_approx_index, shared_compas_3d):
        never = CallableOracle(lambda ordering, dataset: False, "never satisfied")
        report = validate_index_on_dataset(shared_approx_index, shared_compas_3d, never)
        assert report.n_functions_checked > 0
        assert report.n_satisfactory == 0
        assert not report.all_satisfactory
        assert report.fraction_satisfactory == 0.0

    def test_one_oracle_call_per_distinct_function(
        self, shared_approx_index, shared_compas_3d, shared_race_oracle_3d
    ):
        """Cells that share a function are judged once, not once per cell."""
        counting = CountingOracle(shared_race_oracle_3d)
        report = validate_index_on_dataset(shared_approx_index, shared_compas_3d, counting)
        assert counting.calls == report.n_functions_checked
        assert report.n_functions_checked < shared_approx_index.n_cells

    def test_judges_the_new_snapshot_not_the_indexed_one(
        self, shared_approx_index, shared_compas_3d, shared_race_oracle_3d
    ):
        """Same scores, but every item now belongs to the capped group."""
        types = {name: list(values) for name, values in shared_compas_3d.types.items()}
        types["race"] = ["African-American"] * shared_compas_3d.n_items
        snapshot = Dataset(
            shared_compas_3d.scores, shared_compas_3d.scoring_attributes, types
        )
        report = validate_index_on_dataset(
            shared_approx_index, snapshot, shared_race_oracle_3d
        )
        assert report.n_functions_checked > 0
        assert report.n_satisfactory == 0

    def test_dimension_mismatch_rejected(
        self, shared_approx_index, shared_two_d_index, shared_race_oracle_3d
    ):
        dataset_2d, _oracle, _index = shared_two_d_index
        with pytest.raises(ScoringFunctionError):
            validate_index_on_dataset(shared_approx_index, dataset_2d, shared_race_oracle_3d)

    def test_dedup_equals_the_scalar_loop_on_a_large_index(self):
        """1,024 cells built on a sample, validated on a larger snapshot."""
        attributes = list(COMPAS_SCORING_ATTRIBUTES[:3])
        oracle = ProportionalOracle("race", "African-American", 0.3, max_fraction=0.6)
        engine = create_engine(
            make_compas_like(n=300, seed=3).project(attributes),
            oracle,
            ApproxConfig(n_cells=1024, max_hyperplanes=60),
        ).preprocess()
        full = make_compas_like(n=1000, seed=5).project(attributes)
        report = validate_index_on_dataset(engine.index, full, oracle)
        assert report == _scalar_report(engine.index, full, oracle)
        assert 0 < report.n_satisfactory < report.n_functions_checked

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dedup_equals_the_scalar_loop_on_near_duplicates(
        self, seed, shared_compas_3d, shared_race_oracle_3d
    ):
        index = near_duplicate_index(seed)
        report = validate_index_on_dataset(index, shared_compas_3d, shared_race_oracle_3d)
        assert report == _scalar_report(index, shared_compas_3d, shared_race_oracle_3d)
        assigned = np.asarray([row for row in index.assigned_angles if row is not None])
        kept = _distinct_rows(assigned)
        scalar = _distinct_assigned_angles(index)
        assert 8 < len(kept) < len(np.unique(assigned, axis=0))
        assert np.array_equal(kept, np.asarray(scalar))

    def test_empty_report_fraction_is_zero(self):
        report = SampleValidationReport(n_functions_checked=0, n_satisfactory=0)
        assert report.fraction_satisfactory == 0.0
        assert not report.all_satisfactory


# --------------------------------------------------------------------------- #
# re-preprocessing on a new dataset snapshot
# --------------------------------------------------------------------------- #
class TestRefresh:
    """A new dataset snapshot is indexed by re-preprocessing the engine on it."""

    @staticmethod
    def _engine_on(shared_compas_3d, shared_race_oracle_3d):
        config = ApproxConfig(n_cells=64, max_hyperplanes=40)
        return create_engine(shared_compas_3d, shared_race_oracle_3d, config).preprocess()

    def test_repreprocessed_engine_is_fresh_on_new_data(
        self, shared_compas_3d, shared_race_oracle_3d
    ):
        new_dataset = make_compas_like(n=60, seed=11).project(
            list(shared_compas_3d.scoring_attributes)
        )
        oracle = ProportionalOracle.at_most_share_plus_slack(
            new_dataset, "race", "African-American", k=0.3, slack=0.10
        )
        engine = self._engine_on(shared_compas_3d, shared_race_oracle_3d)
        engine.preprocess(new_dataset, oracle)
        assert engine.index.n_cells == 64
        assert validate_index_on_dataset(engine.index, new_dataset, oracle).all_satisfactory

    def test_repreprocessed_engine_answers_queries(
        self, shared_compas_3d, shared_race_oracle_3d
    ):
        new_dataset = make_compas_like(n=60, seed=13).project(
            list(shared_compas_3d.scoring_attributes)
        )
        engine = self._engine_on(shared_compas_3d, shared_race_oracle_3d)
        engine.preprocess(new_dataset)
        answer = engine.suggest(LinearScoringFunction((0.5, 0.3, 0.2)))
        assert answer.angular_distance >= 0.0


@pytest.mark.parametrize(
    "config",
    [TwoDConfig(), ExactConfig(max_hyperplanes=5), ApproxConfig(n_cells=4, max_hyperplanes=5)],
    ids=["2d", "exact", "approximate"],
)
def test_unpreprocessed_engine_raises_not_preprocessed(config):
    """Every seam member that needs an index raises on a fresh engine and
    leaves it unpreprocessed."""
    attributes = ["c_days_from_compas", "juv_other_count", "start"]
    n_attributes = 2 if isinstance(config, TwoDConfig) else 3
    dataset = make_compas_like(n=20, seed=3).project(attributes[:n_attributes])
    oracle = CallableOracle(lambda ordering, data: True, "always")
    engine = create_engine(dataset, oracle, config)
    weights = np.full(n_attributes, 1.0 / n_attributes)
    calls = {
        "index": lambda: engine.index,
        "suggest": lambda: engine.suggest(LinearScoringFunction(tuple(weights))),
        "suggest_many": lambda: engine.suggest_many(np.stack([weights, weights])),
        "to_payload": engine.to_payload,
        "apply_delta": lambda: engine.apply_delta(DatasetDelta(deletes=(0,))),
    }
    for member, call in calls.items():
        with pytest.raises(NotPreprocessedError):
            call()
        assert not engine.is_preprocessed, member
