"""Chaos suite: the resilience guarantees under seeded deterministic faults.

Every test here is marked ``chaos`` (run them alone with ``-m chaos``).  The
headline acceptance test is :class:`TestServingUnderChaos`: at a 20% seeded
fault rate, the pool's ``suggest_many`` never raises, non-faulted answers are
bit-identical to the unwrapped engine's, and every faulted query comes back
as the :class:`~repro.parallel.pool.QueryFailure` the per-query reference
(:func:`differential.per_query_entries`) expects.  The last test keeps the
fault injectors out of every production module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from differential import entry_fingerprint, per_query_entries
from repro.core.engine import ApproxConfig, create_engine
from repro.exceptions import ConfigurationError, OracleError
from repro.fairness.oracle import CountingOracle
from repro.parallel.pool import PoolEngine, QueryFailure
from repro.ranking.scoring import LinearScoringFunction
from repro.resilience import ChaosEngine, ChaosOracle, InjectedFault

pytestmark = pytest.mark.chaos

TIER_A = ApproxConfig(n_cells=64, max_hyperplanes=40)
TIER_B = ApproxConfig(n_cells=32, max_hyperplanes=30)


@pytest.fixture(scope="module")
def chaos_setup(shared_compas_3d, shared_race_oracle_3d):
    tier_a = create_engine(shared_compas_3d, shared_race_oracle_3d, TIER_A).preprocess()
    tier_b = create_engine(shared_compas_3d, shared_race_oracle_3d, TIER_B).preprocess()
    return shared_compas_3d, shared_race_oracle_3d, tier_a, tier_b


def _queries(q: int, d: int = 3, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.1, 1.0, size=(q, d))


# --------------------------------------------------------------------------- #
# the chaos wrappers themselves
# --------------------------------------------------------------------------- #
class TestChaosOracle:
    def test_injection_is_deterministic_per_payload(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        chaos = ChaosOracle(oracle, failure_rate=0.5, seed=3)
        rng = np.random.default_rng(0)
        orderings = [rng.permutation(dataset.n_items) for _ in range(30)]
        verdicts = []
        for ordering in orderings:
            try:
                verdicts.append(chaos.is_satisfactory(ordering, dataset))
            except InjectedFault:
                verdicts.append("fault")
        # Same seed, same payloads: the exact same outcome sequence.
        replay = ChaosOracle(oracle, failure_rate=0.5, seed=3)
        for ordering, expected in zip(orderings, verdicts):
            if expected == "fault":
                assert replay.would_fail(ordering)
                with pytest.raises(InjectedFault):
                    replay.is_satisfactory(ordering, dataset)
            else:
                assert replay.is_satisfactory(ordering, dataset) == expected
        assert chaos.injected_failures == verdicts.count("fault") > 0

    def test_rates_roughly_respected(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        chaos = ChaosOracle(oracle, failure_rate=0.2, seed=1)
        rng = np.random.default_rng(1)
        faults = sum(
            chaos.would_fail(rng.permutation(dataset.n_items)) for _ in range(400)
        )
        assert 40 <= faults <= 130  # 20% ± generous slack on 400 draws

    def test_wrong_verdicts_flip_the_inner_answer(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        counting = CountingOracle(oracle)
        chaos = ChaosOracle(counting, wrong_verdict_rate=1.0, seed=0)
        ordering = np.arange(dataset.n_items)
        assert chaos.is_satisfactory(ordering, dataset) != oracle.is_satisfactory(
            ordering, dataset
        )
        assert chaos.injected_flips == 1

    def test_disabled_wrapper_is_transparent(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        chaos = ChaosOracle(oracle, failure_rate=1.0, enabled=False)
        ordering = np.arange(dataset.n_items)
        assert chaos.is_satisfactory(ordering, dataset) == oracle.is_satisfactory(
            ordering, dataset
        )
        assert chaos.injected_failures == 0 and chaos.forwarded_calls == 1

    def test_describe_names_the_rates(self, chaos_setup):
        _, oracle, _, _ = chaos_setup
        assert "fail=0.25" in ChaosOracle(oracle, failure_rate=0.25).describe()

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    @pytest.mark.parametrize("field", ["failure_rate", "wrong_verdict_rate"])
    def test_rejects_rates_outside_the_unit_interval(self, chaos_setup, field, rate):
        _, oracle, _, _ = chaos_setup
        with pytest.raises(ConfigurationError, match=field):
            ChaosOracle(oracle, **{field: rate})

    def test_requires_a_fairness_oracle(self):
        with pytest.raises(OracleError, match="FairnessOracle"):
            ChaosOracle(lambda ordering, dataset: True)  # type: ignore[arg-type]

    def test_injected_faults_are_oracle_errors(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        chaos = ChaosOracle(oracle, failure_rate=1.0)
        with pytest.raises(OracleError, match="injected oracle failure"):
            chaos.is_satisfactory(np.arange(dataset.n_items), dataset)

    def test_a_faulted_payload_faults_on_every_call(self, chaos_setup):
        # Payload-keyed injection models a deterministically failing input:
        # calling again with the same ordering does not heal it.
        dataset, oracle, _, _ = chaos_setup
        counting = CountingOracle(oracle)
        chaos = ChaosOracle(counting, failure_rate=1.0, seed=0)
        ordering = np.arange(dataset.n_items)
        for _ in range(3):
            with pytest.raises(InjectedFault):
                chaos.is_satisfactory(ordering, dataset)
        assert chaos.injected_failures == 3
        assert chaos.forwarded_calls == 0 and counting.calls == 0

    def test_counters_partition_the_calls(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        counting = CountingOracle(oracle)
        chaos = ChaosOracle(counting, failure_rate=0.4, wrong_verdict_rate=0.3, seed=4)
        rng = np.random.default_rng(2)
        for _ in range(40):
            try:
                chaos.is_satisfactory(rng.permutation(dataset.n_items), dataset)
            except InjectedFault:
                pass
        assert chaos.injected_failures > 0 and chaos.injected_flips > 0
        assert chaos.injected_failures + chaos.injected_flips + chaos.forwarded_calls == 40
        # Only the calls that were not faulted reach the inner oracle.
        assert counting.calls == chaos.forwarded_calls + chaos.injected_flips

    def test_zero_rates_forward_every_verdict(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        chaos = ChaosOracle(oracle, seed=9)
        rng = np.random.default_rng(3)
        for _ in range(20):
            ordering = rng.permutation(dataset.n_items)
            assert not chaos.would_fail(ordering)
            assert chaos.is_satisfactory(ordering, dataset) == oracle.is_satisfactory(
                ordering, dataset
            )
        assert chaos.forwarded_calls == 20
        assert chaos.injected_failures == chaos.injected_flips == 0

    def test_the_seed_picks_the_faulted_payloads(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        rng = np.random.default_rng(4)
        orderings = [rng.permutation(dataset.n_items) for _ in range(60)]
        faulted = [
            [ChaosOracle(oracle, failure_rate=0.5, seed=seed).would_fail(o) for o in orderings]
            for seed in (0, 1)
        ]
        assert any(faulted[0]) and any(faulted[1])
        assert faulted[0] != faulted[1]

    def test_flips_are_drawn_independently_of_failures(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        failing = ChaosOracle(oracle, failure_rate=0.5, seed=5)
        flipping = ChaosOracle(oracle, wrong_verdict_rate=0.5, seed=5)
        rng = np.random.default_rng(6)
        fails, flips = [], []
        for _ in range(60):
            ordering = rng.permutation(dataset.n_items)
            fails.append(failing.would_fail(ordering))
            flips.append(
                flipping.is_satisfactory(ordering, dataset)
                != oracle.is_satisfactory(ordering, dataset)
            )
        assert any(fails) and any(flips)
        assert fails != flips


class TestChaosEngine:
    def test_batch_raises_on_first_poisoned_query(self, chaos_setup):
        _, _, tier_a, _ = chaos_setup
        chaos = ChaosEngine(tier_a, failure_rate=0.3, seed=7)
        matrix = _queries(20, seed=1)
        assert any(chaos.would_fail(row) for row in matrix)
        with pytest.raises(InjectedFault):
            chaos.suggest_many(matrix)

    def test_faults_are_path_independent(self, chaos_setup):
        _, _, tier_a, _ = chaos_setup
        chaos = ChaosEngine(tier_a, failure_rate=0.3, seed=7)
        matrix = _queries(20, seed=1)
        for row in matrix:
            function = LinearScoringFunction(tuple(row.tolist()))
            if chaos.would_fail(row):
                with pytest.raises(InjectedFault):
                    chaos.suggest(function)  # same query faults on retry too
            else:
                assert chaos.suggest(function) == tier_a.suggest(function)

    @pytest.mark.parametrize("rate", [-0.5, 1.01])
    def test_rejects_rates_outside_the_unit_interval(self, chaos_setup, rate):
        _, _, tier_a, _ = chaos_setup
        with pytest.raises(ConfigurationError, match="failure_rate"):
            ChaosEngine(tier_a, failure_rate=rate)

    def test_presents_the_inner_engine_as_its_own(self, chaos_setup):
        _, _, tier_a, _ = chaos_setup
        chaos = ChaosEngine(tier_a, failure_rate=0.5)
        assert chaos.name == tier_a.name == "approximate"
        assert chaos.oracle is tier_a.oracle
        assert chaos.config is tier_a.config
        assert chaos.capabilities() == tier_a.capabilities()
        assert chaos.dataset is tier_a.dataset
        assert chaos.is_preprocessed

    def test_clean_batch_matches_the_inner_engine(self, chaos_setup):
        _, _, tier_a, _ = chaos_setup
        chaos = ChaosEngine(tier_a, seed=7)
        matrix = _queries(10, seed=3)
        assert chaos.suggest_many(matrix) == tier_a.suggest_many(matrix)
        assert chaos.injected_failures == 0

    def test_disabled_engine_is_transparent(self, chaos_setup):
        _, _, tier_a, _ = chaos_setup
        chaos = ChaosEngine(tier_a, failure_rate=1.0, enabled=False)
        matrix = _queries(5, seed=4)
        function = LinearScoringFunction(tuple(matrix[0].tolist()))
        assert chaos.suggest_many(matrix) == tier_a.suggest_many(matrix)
        assert chaos.suggest(function) == tier_a.suggest(function)
        assert chaos.injected_failures == 0

    def test_enabling_after_preprocessing_starts_the_faults(self, chaos_setup):
        _, _, tier_a, _ = chaos_setup
        chaos = ChaosEngine(tier_a, failure_rate=1.0, enabled=False)
        function = LinearScoringFunction((0.4, 0.3, 0.3))
        assert chaos.suggest(function) == tier_a.suggest(function)
        chaos.enabled = True
        with pytest.raises(InjectedFault):
            chaos.suggest(function)
        assert chaos.injected_failures == 1

    def test_batch_stops_at_the_first_poisoned_query(self, chaos_setup):
        _, _, tier_a, _ = chaos_setup
        chaos = ChaosEngine(tier_a, failure_rate=1.0)
        with pytest.raises(InjectedFault, match="injected engine failure"):
            chaos.suggest_many(_queries(6, seed=5))
        assert chaos.injected_failures == 1


# --------------------------------------------------------------------------- #
# the headline acceptance criterion
# --------------------------------------------------------------------------- #
class TestServingUnderChaos:
    """At 20% seeded faults the pool never raises, answers clean queries
    bit-identically and returns a structured record for each faulted one."""

    FAILURE_RATE = 0.2
    N_QUERIES = 40

    def _pooled_run(self, tier_a) -> tuple[ChaosEngine, np.ndarray, list]:
        chaotic = ChaosEngine(tier_a, failure_rate=self.FAILURE_RATE, seed=13)
        matrix = _queries(self.N_QUERIES, seed=2)
        with PoolEngine.from_engine(chaotic, n_workers=1) as pool:
            return chaotic, matrix, pool.suggest_many(matrix)  # must not raise

    def test_suggest_many_never_raises_and_isolates_faults(self, chaos_setup):
        _, _, tier_a, _ = chaos_setup
        chaotic, matrix, results = self._pooled_run(tier_a)
        baseline = tier_a.suggest_many(matrix)  # the unwrapped engine
        poisoned = {row for row in range(self.N_QUERIES) if chaotic.would_fail(matrix[row])}
        assert poisoned, "the seed must fault some queries for this test to bite"
        assert len(results) == self.N_QUERIES
        for row, result in enumerate(results):
            if row in poisoned:
                assert result == QueryFailure(
                    row,
                    tuple(matrix[row].tolist()),
                    "InjectedFault",
                    "chaos: injected engine failure",
                )
            else:
                assert result == baseline[row]

    def test_pool_matches_the_per_query_reference(self, chaos_setup):
        _, _, tier_a, _ = chaos_setup
        chaotic, matrix, results = self._pooled_run(tier_a)
        reference = per_query_entries(chaotic, matrix)
        assert [entry_fingerprint(entry) for entry in results] == [
            entry_fingerprint(entry) for entry in reference
        ]

    def test_chaos_run_is_reproducible(self, chaos_setup):
        _, _, tier_a, _ = chaos_setup
        runs = [self._pooled_run(tier_a)[2] for _ in range(2)]
        assert [entry_fingerprint(entry) for entry in runs[0]] == [
            entry_fingerprint(entry) for entry in runs[1]
        ]


#: The package tree the import guard below scans.
SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"


def _resilience_importers() -> set[str]:
    """Modules of ``src/repro`` outside ``repro/resilience/`` that import ``repro.resilience``."""
    importers: set[str] = set()
    for path in sorted(SRC_REPRO.rglob("*.py")):
        module = path.relative_to(SRC_REPRO.parent).as_posix()
        if module.startswith("repro/resilience/"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name.split(".")[:2] == ["repro", "resilience"] for name in names):
                importers.add(module)
    return importers


def test_fault_injectors_stay_out_of_production_modules():
    """Only tests reach the chaos doubles: no production module imports them."""
    assert _resilience_importers() == set()
