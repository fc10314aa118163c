"""Tests for interactive design sessions and index freshness monitoring."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import ApproxConfig, ExactConfig, TwoDConfig, create_engine
from repro.core.monitoring import (
    FreshnessReport,
    check_approx_index_freshness,
    check_engine_freshness,
    check_two_d_index_freshness,
    refresh_if_stale,
)
from repro.core.session import DesignSession
from repro.core.system import FairRankingDesigner
from repro.data.synthetic import make_compas_like
from repro.exceptions import ConfigurationError, NotPreprocessedError
from repro.fairness.oracle import CallableOracle
from repro.fairness.proportional import ProportionalOracle
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
# freshness monitoring
# --------------------------------------------------------------------------- #
class TestApproxFreshness:
    def test_fresh_on_the_indexed_dataset(self, shared_approx_index, shared_compas_3d):
        report = check_approx_index_freshness(shared_approx_index, shared_compas_3d)
        assert isinstance(report, FreshnessReport)
        assert report.is_fresh
        assert report.n_stale == 0
        assert report.fraction_stale == 0.0
        assert report.oracle_calls == report.n_checked

    def test_stale_under_an_impossible_oracle(self, shared_approx_index, shared_compas_3d):
        never = CallableOracle(lambda ordering, dataset: False, "never satisfied")
        report = check_approx_index_freshness(
            shared_approx_index, shared_compas_3d, oracle=never
        )
        assert report.n_checked > 0
        assert report.n_stale == report.n_checked
        assert not report.is_fresh
        assert report.fraction_stale == 1.0
        assert list(report.stale_indices) == sorted(report.stale_indices)

    def test_cell_subsampling_bounds_the_work(self, shared_approx_index, shared_compas_3d):
        report = check_approx_index_freshness(
            shared_approx_index, shared_compas_3d, sample_cells=5
        )
        assert report.n_checked == 5
        assert report.oracle_calls == 5

    def test_subsample_must_be_positive(self, shared_approx_index, shared_compas_3d):
        with pytest.raises(ConfigurationError):
            check_approx_index_freshness(
                shared_approx_index, shared_compas_3d, sample_cells=0
            )

    def test_dimension_mismatch_rejected(self, shared_approx_index, paper_2d_dataset):
        with pytest.raises(ConfigurationError):
            check_approx_index_freshness(shared_approx_index, paper_2d_dataset)

    def test_empty_report_fraction_is_zero(self):
        report = FreshnessReport(n_checked=0, n_stale=0, stale_indices=(), oracle_calls=0)
        assert report.fraction_stale == 0.0


class TestTwoDFreshness:
    def test_fresh_on_the_indexed_dataset(self, shared_two_d_index):
        dataset, oracle, index = shared_two_d_index
        report = check_two_d_index_freshness(index, dataset, oracle)
        assert report.n_checked == len(index.intervals)
        assert report.is_fresh

    def test_stale_under_an_impossible_oracle(self, shared_two_d_index):
        dataset, _oracle, index = shared_two_d_index
        never = CallableOracle(lambda ordering, data: False, "never satisfied")
        report = check_two_d_index_freshness(index, dataset, never)
        assert report.n_stale == report.n_checked

    def test_requires_two_attributes(self, shared_two_d_index, shared_compas_3d):
        _dataset, oracle, index = shared_two_d_index
        with pytest.raises(ConfigurationError):
            check_two_d_index_freshness(index, shared_compas_3d, oracle)

    def test_requires_positive_probe_count(self, shared_two_d_index):
        dataset, oracle, index = shared_two_d_index
        with pytest.raises(ConfigurationError):
            check_two_d_index_freshness(index, dataset, oracle, probes_per_interval=0)


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
        assert check_engine_freshness(engine).is_fresh

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
    """Reading a fresh engine's index raises before any freshness dispatch."""
    attributes = ["c_days_from_compas", "juv_other_count", "start"]
    n_attributes = 2 if isinstance(config, TwoDConfig) else 3
    dataset = make_compas_like(n=20, seed=3).project(attributes[:n_attributes])
    oracle = CallableOracle(lambda ordering, data: True, "always")
    engine = create_engine(dataset, oracle, config)
    with pytest.raises(NotPreprocessedError):
        check_engine_freshness(engine)
    with pytest.raises(NotPreprocessedError):
        refresh_if_stale(engine)
