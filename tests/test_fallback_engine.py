"""Tests for the fallback engine chain: registry integration and degradation."""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.core.engine import (
    ApproxConfig,
    ExactConfig,
    TwoDConfig,
    available_engines,
    create_engine,
    engine_name_for_config,
    get_engine,
)
from repro.core.monitoring import error_budget_report
from repro.core.session import DesignSession
from repro.core.system import FairRankingDesigner
from repro.exceptions import (
    ConfigurationError,
    FallbackExhaustedError,
    NoSatisfactoryFunctionError,
    NotPreprocessedError,
)
from repro.fairness.oracle import CallableOracle
from repro.fairness.proportional import ProportionalOracle
from repro.ranking.scoring import LinearScoringFunction
from repro.resilience import (
    BatchReport,
    ChaosEngine,
    FallbackConfig,
    FallbackEngine,
    QueryFailure,
    QueryRecord,
    TierError,
)

TIER_A = ApproxConfig(n_cells=64, max_hyperplanes=40)
TIER_B = ApproxConfig(n_cells=32, max_hyperplanes=30)


@pytest.fixture(scope="module")
def serving_setup(shared_compas_3d, shared_race_oracle_3d):
    """Dataset, oracle, and two preprocessed approximate tiers (A finer than B)."""
    tier_a = create_engine(shared_compas_3d, shared_race_oracle_3d, TIER_A).preprocess()
    tier_b = create_engine(shared_compas_3d, shared_race_oracle_3d, TIER_B).preprocess()
    return shared_compas_3d, shared_race_oracle_3d, tier_a, tier_b


def _queries(q: int, d: int = 3, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.1, 1.0, size=(q, d))


class AlwaysBrokenEngine:
    """An engine stub whose preprocessing always fails."""

    name = "broken"

    def __init__(self, dataset, oracle) -> None:
        self.dataset = dataset
        self.oracle = oracle
        self.is_preprocessed = False

    def preprocess(self, dataset=None, oracle=None):
        raise RuntimeError("this tier never comes up")


class UnpreparedEngine:
    """An engine stub that claims to be preprocessed but answers like one that is not."""

    name = "unprepared"

    def __init__(self, dataset, oracle) -> None:
        self.dataset = dataset
        self.oracle = oracle
        self.is_preprocessed = True

    def suggest(self, function):
        raise NotPreprocessedError("call preprocess() first")

    def suggest_many(self, weights_matrix):
        raise NotPreprocessedError("call preprocess() first")


# --------------------------------------------------------------------------- #
# registry integration (the PR-2 seam)
# --------------------------------------------------------------------------- #
class TestRegistryIntegration:
    def test_fallback_is_a_registered_engine(self):
        assert "fallback" in available_engines()
        assert get_engine("fallback") is FallbackEngine
        assert engine_name_for_config(FallbackConfig()) == "fallback"

    def test_create_engine_builds_the_chain(self, shared_compas_3d, shared_race_oracle_3d):
        engine = create_engine(
            shared_compas_3d, shared_race_oracle_3d, FallbackConfig(tiers=(TIER_A, TIER_B))
        )
        assert isinstance(engine, FallbackEngine)
        assert engine.name == "fallback"
        assert [type(tier.config).__name__ for tier in engine.engines] == [
            "ApproxConfig",
            "ApproxConfig",
        ]

    def test_default_tiers_by_dimension(self, shared_compas_3d, shared_race_oracle_3d):
        three_d = FallbackEngine(shared_compas_3d, shared_race_oracle_3d)
        assert tuple(type(t) for t in three_d.config.tiers) == (ExactConfig, ApproxConfig)
        two_d = shared_compas_3d.project(["c_days_from_compas", "juv_other_count"])
        oracle_2d = ProportionalOracle.at_most_share_plus_slack(
            two_d, "race", "African-American", k=0.3, slack=0.10
        )
        assert tuple(type(t) for t in FallbackEngine(two_d, oracle_2d).config.tiers) == (
            TwoDConfig,
        )

    def test_capabilities(self):
        caps = FallbackEngine.capabilities()
        assert caps.name == "fallback"
        assert caps.batched and not caps.persistable
        assert caps.supports_dimension(2) and caps.supports_dimension(7)

    def test_not_persistable(self, serving_setup):
        _, _, tier_a, _ = serving_setup
        engine = FallbackEngine.from_engines([tier_a])
        with pytest.raises(ConfigurationError, match="from_engines"):
            engine.to_payload()
        with pytest.raises(ConfigurationError):
            FallbackEngine.from_payload({}, None)


class TestFallbackConfig:
    def test_rejects_nested_chains(self):
        with pytest.raises(ConfigurationError, match="nest"):
            FallbackConfig(tiers=(FallbackConfig(),))

    def test_rejects_non_engine_configs(self):
        with pytest.raises(ConfigurationError):
            FallbackConfig(tiers=("approximate",))  # type: ignore[arg-type]

    def test_wrong_config_type_rejected(self, serving_setup):
        dataset, oracle, _, _ = serving_setup
        with pytest.raises(ConfigurationError, match="FallbackConfig"):
            FallbackEngine(dataset, oracle, ApproxConfig())  # type: ignore[arg-type]

    def test_empty_engine_list_rejected(self):
        with pytest.raises(ConfigurationError):
            FallbackEngine.from_engines([])


# --------------------------------------------------------------------------- #
# per-query records
# --------------------------------------------------------------------------- #
FAULT = TierError("0:exact", "InjectedFault", "chaos: injected engine failure")
CLEAN = QueryRecord(0, "0:exact")
FAILED_OVER = QueryRecord(1, "1:approximate", (FAULT,))
LOST = QueryRecord(2, None, (FAULT, TierError("1:approximate", "LPError", "infeasible")))


class TestRecords:
    def test_query_record_flags(self):
        assert (CLEAN.faulted, CLEAN.answered) == (False, True)
        assert (FAILED_OVER.faulted, FAILED_OVER.answered) == (True, True)
        assert (LOST.faulted, LOST.answered) == (True, False)

    def test_query_failure_is_never_answered(self):
        assert not QueryFailure(2, (0.5, 0.5), LOST.errors).answered
        assert not QueryFailure(3, (0.5, 0.5), ()).answered

    def test_batch_report_counts(self):
        report = BatchReport((CLEAN, FAILED_OVER, LOST, QueryRecord(3, "0:exact")))
        assert report.n_queries == 4
        assert report.n_faulted == 2
        assert report.n_unanswered == 1
        assert report.tiers_used == {"0:exact": 2, "1:approximate": 1}
        assert BatchReport(()).tiers_used == {}

    def test_records_are_frozen(self):
        with pytest.raises(FrozenInstanceError):
            CLEAN.tier = None  # type: ignore[misc]
        with pytest.raises(FrozenInstanceError):
            FAULT.message = ""  # type: ignore[misc]


# --------------------------------------------------------------------------- #
# serving semantics
# --------------------------------------------------------------------------- #
class TestServing:
    def test_queries_require_preprocessing(self, serving_setup):
        dataset, oracle, _, _ = serving_setup
        engine = create_engine(dataset, oracle, FallbackConfig(tiers=(TIER_A,)))
        with pytest.raises(NotPreprocessedError):
            engine.suggest(LinearScoringFunction((0.4, 0.3, 0.3)))
        with pytest.raises(NotPreprocessedError):
            engine.suggest_many(_queries(2))

    def test_happy_path_is_bit_identical_to_first_tier(self, serving_setup):
        _, _, tier_a, _ = serving_setup
        engine = FallbackEngine.from_engines([tier_a]).preprocess()
        matrix = _queries(10)
        assert engine.suggest_many(matrix) == tier_a.suggest_many(matrix)
        report = engine.last_report
        assert report.n_queries == 10 and report.n_faulted == 0
        assert report.tiers_used == {"0:approximate": 10}

    def test_single_query_failover_records_tier(self, serving_setup):
        _, _, tier_a, tier_b = serving_setup
        chaotic = ChaosEngine(tier_a, failure_rate=1.0, seed=0)
        engine = FallbackEngine.from_engines([chaotic, tier_b]).preprocess()
        function = LinearScoringFunction((0.4, 0.3, 0.3))
        result = engine.suggest(function)
        assert result == tier_b.suggest(function)
        assert engine.last_record.tier == "1:approximate"
        assert engine.last_record.faulted
        assert engine.last_record.errors[0].error_type == "InjectedFault"

    def test_exhausted_chain_raises_with_structured_attempts(self, serving_setup):
        _, _, tier_a, tier_b = serving_setup
        engine = FallbackEngine.from_engines(
            [ChaosEngine(tier_a, failure_rate=1.0), ChaosEngine(tier_b, failure_rate=1.0)]
        ).preprocess()
        with pytest.raises(FallbackExhaustedError) as excinfo:
            engine.suggest(LinearScoringFunction((0.4, 0.3, 0.3)))
        assert len(excinfo.value.attempts) == 2
        assert {attempt.tier for attempt in excinfo.value.attempts} == {
            "0:approximate",
            "1:approximate",
        }
        assert engine.telemetry.n_unanswered == 1

    def test_batch_isolates_poisoned_queries(self, serving_setup):
        _, _, tier_a, tier_b = serving_setup
        chaotic = ChaosEngine(tier_a, failure_rate=0.3, seed=7)
        engine = FallbackEngine.from_engines([chaotic, tier_b]).preprocess()
        matrix = _queries(20, seed=1)
        poisoned = [row for row in range(20) if chaotic.would_fail(matrix[row])]
        assert poisoned, "seed must poison at least one query for this test"
        results = engine.suggest_many(matrix)
        expected_a = tier_a.suggest_many(matrix)
        expected_b = tier_b.suggest_many(matrix)
        for row, result in enumerate(results):
            assert not isinstance(result, QueryFailure)
            if row in poisoned:
                assert result == expected_b[row]
                assert engine.last_report.records[row].tier == "1:approximate"
            else:
                assert result == expected_a[row]
                assert engine.last_report.records[row].tier == "0:approximate"
        assert engine.last_report.n_faulted == len(poisoned)

    def test_unanswerable_queries_become_failure_records(self, serving_setup):
        _, _, tier_a, tier_b = serving_setup
        engine = FallbackEngine.from_engines(
            [
                ChaosEngine(tier_a, failure_rate=1.0, seed=1),
                ChaosEngine(tier_b, failure_rate=1.0, seed=2),
            ]
        ).preprocess()
        matrix = _queries(4)
        results = engine.suggest_many(matrix)
        assert all(isinstance(result, QueryFailure) for result in results)
        for row, failure in enumerate(results):
            assert failure.index == row
            assert failure.weights == tuple(matrix[row].tolist())
            assert [error.tier for error in failure.errors] == [
                "0:approximate",
                "1:approximate",
            ]
            assert not failure.answered
        assert engine.last_report.n_unanswered == 4

    def test_invalid_weight_rows_fail_per_query_not_per_batch(self, serving_setup):
        _, _, tier_a, tier_b = serving_setup
        engine = FallbackEngine.from_engines([tier_a, tier_b]).preprocess()
        matrix = _queries(4)
        matrix[2] = [-1.0, 0.5, 0.5]  # negative weight: invalid scoring function
        results = engine.suggest_many(matrix)
        expected = tier_a.suggest_many(np.delete(matrix, 2, axis=0))
        assert [results[0], results[1], results[3]] == expected
        assert isinstance(results[2], QueryFailure)
        assert results[2].errors[0].tier == "query"

    def test_wrong_shape_still_raises(self, serving_setup):
        _, _, tier_a, _ = serving_setup
        engine = FallbackEngine.from_engines([tier_a]).preprocess()
        with pytest.raises(ConfigurationError):
            engine.suggest_many(np.ones((3, 5)))

    def test_no_satisfactory_function_passes_through(self, shared_compas_3d):
        impossible = CallableOracle(lambda ordering, dataset: False, "never")
        tier = create_engine(shared_compas_3d, impossible, TIER_B).preprocess()
        engine = FallbackEngine.from_engines([tier, tier]).preprocess()
        with pytest.raises(NoSatisfactoryFunctionError):
            engine.suggest(LinearScoringFunction((0.4, 0.3, 0.3)))
        with pytest.raises(NoSatisfactoryFunctionError):
            engine.suggest_many(_queries(3))


    def test_not_preprocessed_tier_passes_through(self, serving_setup):
        dataset, oracle, _, tier_b = serving_setup
        engine = FallbackEngine.from_engines(
            [UnpreparedEngine(dataset, oracle), tier_b]
        ).preprocess()
        with pytest.raises(NotPreprocessedError):
            engine.suggest(LinearScoringFunction((0.4, 0.3, 0.3)))
        with pytest.raises(NotPreprocessedError):
            engine.suggest_many(_queries(3))
        assert engine.telemetry.n_failovers == 0

    def test_active_tiers_require_preprocessing(self, serving_setup):
        _, _, tier_a, tier_b = serving_setup
        engine = FallbackEngine.from_engines([tier_a, tier_b])
        assert not engine.is_preprocessed
        with pytest.raises(NotPreprocessedError):
            engine.active_tiers
        engine.preprocess()
        assert engine.is_preprocessed
        assert engine.active_tiers == ("0:approximate", "1:approximate")

    def test_reports_are_empty_before_the_first_query(self, serving_setup):
        _, _, tier_a, _ = serving_setup
        engine = FallbackEngine.from_engines([tier_a]).preprocess()
        assert engine.last_report is None and engine.last_record is None
        assert engine.telemetry.as_dict() == {
            "n_queries": 0,
            "n_failovers": 0,
            "n_unanswered": 0,
            "answered_by": {},
            "tier_failures": {},
        }

    def test_happy_path_report_is_built_once(self, serving_setup):
        _, _, tier_a, _ = serving_setup
        engine = FallbackEngine.from_engines([tier_a]).preprocess()
        engine.suggest_many(_queries(3))
        report = engine.last_report
        assert report is engine.last_report
        assert report.records == tuple(QueryRecord(row, "0:approximate") for row in range(3))

    def test_telemetry_counts_a_single_query_failover(self, serving_setup):
        _, _, tier_a, tier_b = serving_setup
        engine = FallbackEngine.from_engines(
            [ChaosEngine(tier_a, failure_rate=1.0), tier_b]
        ).preprocess()
        engine.suggest(LinearScoringFunction((0.4, 0.3, 0.3)))
        assert engine.telemetry.as_dict() == {
            "n_queries": 1,
            "n_failovers": 1,
            "n_unanswered": 0,
            "answered_by": {"1:approximate": 1},
            "tier_failures": {"0:approximate": 1},
        }

    def test_telemetry_accumulates_across_batches(self, serving_setup):
        _, _, tier_a, tier_b = serving_setup
        chaotic = ChaosEngine(tier_a, failure_rate=0.3, seed=7)
        engine = FallbackEngine.from_engines([chaotic, tier_b]).preprocess()
        matrix = _queries(20, seed=1)
        poisoned = sum(chaotic.would_fail(row) for row in matrix)
        assert 0 < poisoned < 20
        for _ in range(2):
            engine.suggest_many(matrix)
        counters = engine.telemetry.as_dict()
        assert counters == {
            "n_queries": 40,
            "n_failovers": 2 * poisoned,
            "n_unanswered": 0,
            "answered_by": {"0:approximate": 2 * (20 - poisoned), "1:approximate": 2 * poisoned},
            "tier_failures": {"0:approximate": 2 * poisoned},
        }
        assert json.loads(json.dumps(counters)) == counters


# --------------------------------------------------------------------------- #
# preprocessing leniency
# --------------------------------------------------------------------------- #
class TestLenientPreprocess:
    def test_broken_tier_is_dropped_when_lenient(self, serving_setup):
        dataset, oracle, tier_a, _ = serving_setup
        engine = FallbackEngine.from_engines(
            [tier_a, AlwaysBrokenEngine(dataset, oracle)]
        ).preprocess()
        assert engine.active_tiers == ("0:approximate",)
        assert engine.preprocess_errors[0].tier == "1:broken"
        matrix = _queries(3)
        assert engine.suggest_many(matrix) == tier_a.suggest_many(matrix)

    def test_all_tiers_broken_raises_even_when_lenient(self, serving_setup):
        dataset, oracle, _, _ = serving_setup
        engine = FallbackEngine.from_engines(
            [AlwaysBrokenEngine(dataset, oracle), AlwaysBrokenEngine(dataset, oracle)]
        )
        with pytest.raises(ConfigurationError, match="every tier"):
            engine.preprocess()


# --------------------------------------------------------------------------- #
# error budget and session attribution
# --------------------------------------------------------------------------- #
class TestErrorBudget:
    def test_budget_report_from_telemetry(self, serving_setup):
        _, _, tier_a, tier_b = serving_setup
        engine = FallbackEngine.from_engines(
            [ChaosEngine(tier_a, failure_rate=0.3, seed=7), tier_b]
        ).preprocess()
        engine.suggest_many(_queries(20, seed=1))
        report = error_budget_report(engine, budget=0.05)
        assert report.n_queries == 20
        assert report.n_unanswered == 0 and report.within_budget
        assert report.failover_rate > 0
        assert sum(report.answered_by.values()) == 20
        assert report.as_dict()["error_rate"] == 0.0

    def test_blown_budget_is_reported(self, serving_setup):
        _, _, tier_a, _ = serving_setup
        engine = FallbackEngine.from_engines(
            [ChaosEngine(tier_a, failure_rate=1.0)]
        ).preprocess()
        engine.suggest_many(_queries(5))
        report = error_budget_report(engine, budget=0.5)
        assert report.error_rate == 1.0
        assert not report.within_budget
        assert report.budget_remaining == pytest.approx(-0.5)

    def test_engines_without_telemetry_are_rejected(self, serving_setup):
        _, _, tier_a, _ = serving_setup
        with pytest.raises(ConfigurationError, match="telemetry"):
            error_budget_report(tier_a)

    def test_invalid_budget_rejected(self, serving_setup):
        _, _, tier_a, _ = serving_setup
        engine = FallbackEngine.from_engines([tier_a]).preprocess()
        with pytest.raises(ConfigurationError):
            error_budget_report(engine, budget=1.5)


class TestSessionTierAttribution:
    def test_designer_accepts_fallback_config(self, serving_setup):
        dataset, oracle, _, _ = serving_setup
        designer = FairRankingDesigner(
            dataset, oracle, FallbackConfig(tiers=(TIER_B,))
        ).preprocess()
        assert designer.mode == "fallback"
        result = designer.suggest([0.4, 0.3, 0.3])
        assert result.function.dimension == 3

    def test_session_records_answering_tier(self, serving_setup):
        dataset, oracle, tier_a, tier_b = serving_setup
        designer = FairRankingDesigner._from_engine(
            FallbackEngine.from_engines(
                [ChaosEngine(tier_a, failure_rate=1.0), tier_b]
            ).preprocess()
        )
        session = DesignSession(designer)
        record = session.propose([0.4, 0.3, 0.3])
        assert record.tier == "1:approximate"
        assert record.as_dict()["tier"] == "1:approximate"
        accepted = session.accept()
        assert accepted.tier == "1:approximate"  # acceptance preserves the tier

    def test_session_batch_records_tiers(self, serving_setup):
        dataset, oracle, tier_a, tier_b = serving_setup
        chaotic = ChaosEngine(tier_a, failure_rate=0.3, seed=7)
        designer = FairRankingDesigner._from_engine(
            FallbackEngine.from_engines([chaotic, tier_b]).preprocess()
        )
        session = DesignSession(designer)
        matrix = _queries(8, seed=1)
        records = session.propose_many(matrix)
        assert len(records) == 8
        for row, record in enumerate(records):
            expected = "1:approximate" if chaotic.would_fail(matrix[row]) else "0:approximate"
            assert record.tier == expected

    def test_single_pipeline_sessions_have_no_tier(self, serving_setup):
        _, _, tier_a, _ = serving_setup
        session = DesignSession(FairRankingDesigner._from_engine(tier_a))
        record = session.propose([0.4, 0.3, 0.3])
        assert record.tier is None
        assert record.as_dict()["tier"] is None
