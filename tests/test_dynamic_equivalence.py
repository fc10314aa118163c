"""Delta-vs-rebuild differential tests: the PR-10 bit-identity proof.

Every test here mutates a dataset through the maintenance seam
(:meth:`QueryEngine.apply_delta`) and asserts — via the :mod:`differential`
harness — that the maintained engine is indistinguishable from an engine
rebuilt from scratch on the mutated dataset: exact answer fingerprints,
matching oracle-call budgets, and byte-for-byte equal index payloads.
Covered:

* all three engine families (``2d``, ``exact``, ``approximate``) under a
  seeded random insert/delete/update sequence (the exact family insert-only,
  the one shape its arrangement-tree cache supports incrementally; the
  approximate family always rebuilds);
* both maintenance strategies — ``incremental`` (cheap geometry reuse) and
  ``rebuild`` (staleness threshold exceeded) — land on the same bits;
* every registered engine, wrappers included, passes one delta-vs-rebuild
  differential; a newly registered engine fails until it has a case;
* a delta or preprocess that raises leaves the engine as it was — a wrapper
  and its inner engine keep their oracle too — and the retried delta still
  lands on rebuild bits;
* ``refresh()`` after the oracle's criterion drifted in place equals a fresh
  preprocess under the drifted oracle, and ``refresh_if_stale`` drives it;
* persistence: a maintained engine saves as a snapshot with a fresh
  rebuild's bytes, reloads equivalent to it and re-saves byte-identically;
  the in-memory journal records every delta since the last successful
  ``preprocess``;
* the wrapper engines (``pool``, ``instrumented``, ``fallback``) that
  override ``apply_delta``: each propagates a delta to the same bits as a
  fresh rebuild; every wrapper, ``ChaosEngine`` included, exposes the
  wrapped engine's seam state, and a chaos tier survives maintenance in a
  fallback chain.

The oracles on both sides of every differential are constructed with *fixed*
parameters (never derived from a dataset, e.g. via
``at_most_share_plus_slack``) — a dataset-derived constraint would differ
between the base and mutated datasets and the two engines would answer
different questions.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from differential import (
    assert_engines_equivalent,
    entry_fingerprint,
    make_weight_grid,
    payload_bytes,
)
from repro.core.engine import (
    STALENESS_THRESHOLD,
    ApproxConfig,
    ExactConfig,
    TwoDConfig,
    available_engines,
    create_engine,
)
from repro.core.maintenance import DELTA_FORMAT, DatasetDelta, MaintenanceReport
from repro.core.monitoring import check_engine_freshness, refresh_if_stale
from repro.data.synthetic import make_compas_like
from repro.exceptions import ConfigurationError, DatasetError, OracleError
from repro.fairness.oracle import CallableOracle, CountingOracle
from repro.fairness.proportional import ProportionalOracle
from repro.io.index_store import load_engine, save_engine
from repro.obs.instrument import InstrumentedEngine
from repro.parallel.pool import PoolEngine
from repro.resilience.chaos import ChaosEngine
from repro.resilience.fallback import FallbackEngine

pytestmark = pytest.mark.dynamic

ATTRIBUTES = ["c_days_from_compas", "juv_other_count", "start"]


def fixed_oracle() -> CountingOracle:
    """A constraint with constructor-fixed parameters (see module docstring)."""
    return CountingOracle(
        ProportionalOracle("race", "African-American", 0.3, max_fraction=0.60)
    )


def dataset(n: int, dimension: int, seed: int):
    return make_compas_like(n=n, seed=seed).project(ATTRIBUTES[:dimension])


def random_delta(
    ds,
    seed: int,
    *,
    n_inserts: int = 3,
    deletes: tuple[int, ...] = (1, 5),
    update_index: int | None = 7,
) -> DatasetDelta:
    """A seeded random insert/delete/update sequence against ``ds``."""
    rng = np.random.default_rng(seed)
    inserts = tuple(
        tuple(float(x) for x in row)
        for row in rng.random((n_inserts, ds.n_attributes)) + 0.01
    )
    insert_types = {
        attr: tuple(rng.choice(np.asarray(column), size=n_inserts))
        for attr, column in ds.types.items()
    }
    updates: tuple[tuple[int, tuple[float, ...]], ...] = ()
    if update_index is not None:
        row = tuple(float(x) for x in rng.random(ds.n_attributes) + 0.01)
        updates = ((update_index, row),)
    return DatasetDelta(
        inserts=inserts,
        insert_types=insert_types,
        deletes=deletes,
        updates=updates,
    )


def insert_only_delta(ds, seed: int, n_inserts: int = 2) -> DatasetDelta:
    return random_delta(ds, seed, n_inserts=n_inserts, deletes=(), update_index=None)


def fresh_twin(mutated, config):
    """An engine preprocessed from scratch on the already-mutated dataset."""
    return create_engine(mutated, fixed_oracle(), config).preprocess()


# --------------------------------------------------------------------------- #
# engine families: incremental maintenance == rebuild, bit for bit
# --------------------------------------------------------------------------- #
class TestFamilies:
    def test_two_d_mixed_delta_incremental(self):
        ds = dataset(40, 2, seed=1)
        engine = create_engine(ds, fixed_oracle(), TwoDConfig()).preprocess()
        delta = random_delta(ds, seed=0)
        report = engine.apply_delta(delta)
        assert report.strategy == "incremental", report.as_dict()
        assert (report.n_inserted, report.n_deleted, report.n_updated) == (3, 2, 1)
        fresh = fresh_twin(delta.apply(dataset(40, 2, seed=1)), TwoDConfig())
        assert_engines_equivalent(engine, fresh, make_weight_grid(24, 2, seed=3))

    def test_two_d_staleness_forces_rebuild_same_bits(self):
        ds = dataset(40, 2, seed=1)
        engine = create_engine(ds, fixed_oracle(), TwoDConfig()).preprocess()
        delta = random_delta(ds, seed=0, n_inserts=21)
        assert delta.staleness_fraction(ds.n_items) > STALENESS_THRESHOLD
        report = engine.apply_delta(delta)
        assert report.strategy == "rebuild", report.as_dict()
        fresh = fresh_twin(delta.apply(dataset(40, 2, seed=1)), TwoDConfig())
        assert_engines_equivalent(engine, fresh, make_weight_grid(24, 2, seed=3))

    def test_two_d_chained_deltas(self):
        """Two deltas applied in sequence still land on rebuild bits."""
        ds = dataset(40, 2, seed=2)
        engine = create_engine(ds, fixed_oracle(), TwoDConfig()).preprocess()
        first = random_delta(ds, seed=10)
        engine.apply_delta(first)
        mutated_once = first.apply(dataset(40, 2, seed=2))
        second = random_delta(mutated_once, seed=11, deletes=(0, 2), update_index=4)
        engine.apply_delta(second)
        fresh = fresh_twin(second.apply(mutated_once), TwoDConfig())
        assert_engines_equivalent(engine, fresh, make_weight_grid(24, 2, seed=6))

    @pytest.mark.slow
    def test_exact_insert_only_incremental(self):
        ds = dataset(12, 3, seed=2)
        config = ExactConfig()
        engine = create_engine(ds, fixed_oracle(), config).preprocess()
        delta = insert_only_delta(ds, seed=1)
        report = engine.apply_delta(delta)
        assert report.strategy == "incremental", report.as_dict()
        fresh = fresh_twin(delta.apply(dataset(12, 3, seed=2)), ExactConfig())
        assert_engines_equivalent(engine, fresh, make_weight_grid(24, 3, seed=4))

    def test_exact_mixed_delta_falls_back_to_rebuild(self):
        """Deletes/updates invalidate the arrangement-tree cache -> rebuild."""
        ds = dataset(10, 3, seed=2)
        config = ExactConfig(max_hyperplanes=20)
        engine = create_engine(ds, fixed_oracle(), config).preprocess()
        delta = random_delta(ds, seed=3, n_inserts=1, deletes=(1,), update_index=None)
        report = engine.apply_delta(delta)
        assert report.strategy == "rebuild", report.as_dict()
        fresh = fresh_twin(
            delta.apply(dataset(10, 3, seed=2)),
            ExactConfig(max_hyperplanes=20),
        )
        assert_engines_equivalent(engine, fresh, make_weight_grid(16, 3, seed=5))

    @pytest.mark.slow
    def test_approx_mixed_delta_rebuilds(self):
        ds = dataset(16, 3, seed=3)
        config = ApproxConfig(n_cells=27)
        engine = create_engine(ds, fixed_oracle(), config).preprocess()
        delta = random_delta(ds, seed=2)
        report = engine.apply_delta(delta)
        assert report.strategy == "rebuild", report.as_dict()
        fresh = fresh_twin(
            delta.apply(dataset(16, 3, seed=3)),
            ApproxConfig(n_cells=27),
        )
        assert_engines_equivalent(engine, fresh, make_weight_grid(24, 3, seed=5))


# --------------------------------------------------------------------------- #
# persistence: a maintained engine saves as a snapshot; the in-memory journal
# --------------------------------------------------------------------------- #
class TestPersistence:
    def test_round_trip_matches_rebuild_and_resave_is_stable(self, tmp_path):
        ds = dataset(40, 2, seed=1)
        engine = create_engine(ds, fixed_oracle(), TwoDConfig()).preprocess()
        delta = random_delta(ds, seed=0)
        engine.apply_delta(delta)

        path = tmp_path / "maintained.json"
        save_engine(engine, path)
        loaded = load_engine(path, fixed_oracle())

        fresh = fresh_twin(delta.apply(dataset(40, 2, seed=1)), TwoDConfig())
        rebuilt = tmp_path / "rebuilt.json"
        save_engine(fresh, rebuilt)
        assert path.read_bytes() == rebuilt.read_bytes()
        assert_engines_equivalent(loaded, fresh, make_weight_grid(24, 2, seed=3))

        resaved = tmp_path / "resaved.json"
        save_engine(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_journal_records_every_delta(self):
        ds = dataset(40, 2, seed=2)
        criterion = Criterion()
        engine = create_engine(ds, criterion_oracle(criterion), TwoDConfig()).preprocess()
        first = random_delta(ds, seed=10)
        engine.apply_delta(first)
        mutated_once = first.apply(dataset(40, 2, seed=2))
        second = random_delta(mutated_once, seed=11, deletes=(0,), update_index=2)
        engine.apply_delta(second)
        assert engine.journal == (first, second)

        # A rebuilding delta keeps the earlier entries and appends itself.
        third = random_delta(second.apply(mutated_once), seed=12, n_inserts=30)
        assert engine.apply_delta(third).strategy == "rebuild"
        assert engine.journal == (first, second, third)

        # A preprocess that raises leaves the journal; one that succeeds empties it.
        rebound = dataset(30, 2, seed=5)
        criterion.armed = True
        with pytest.raises(OracleError):
            engine.preprocess(rebound)
        criterion.armed = False
        assert engine.journal == (first, second, third)
        engine.preprocess(rebound)
        assert engine.journal == ()


# --------------------------------------------------------------------------- #
# wrapper engines overriding apply_delta (pool / instrumented / fallback)
# --------------------------------------------------------------------------- #
class TestWrapperEngines:
    def _base(self, seed=1):
        ds = dataset(40, 2, seed=seed)
        return ds, create_engine(ds, fixed_oracle(), TwoDConfig())

    def _fresh_after(self, delta, seed=1):
        return fresh_twin(delta.apply(dataset(40, 2, seed=seed)), TwoDConfig())

    def test_instrumented_forwards_and_counts(self):
        ds, inner = self._base()
        engine = InstrumentedEngine.from_engine(inner)
        engine.preprocess()
        delta = random_delta(ds, seed=0)
        report = engine.apply_delta(delta)
        assert report.strategy == "incremental"
        fresh = self._fresh_after(delta)
        assert_engines_equivalent(
            engine.inner, fresh, make_weight_grid(24, 2, seed=3), check_oracle_calls=False
        )
        refresh_report = engine.refresh()
        assert refresh_report.strategy == "refresh"

    def test_fallback_maintains_every_tier(self):
        ds, inner = self._base()
        engine = FallbackEngine.from_engines([inner]).preprocess()
        delta = random_delta(ds, seed=0)
        report = engine.apply_delta(delta)
        assert report.engine == "fallback"
        assert report.strategy == "incremental"
        assert report.details["tiers"]
        fresh = self._fresh_after(delta)
        assert_engines_equivalent(
            engine.engines[0], fresh, make_weight_grid(24, 2, seed=3), check_oracle_calls=False
        )

    def test_pool_republishes_maintained_index(self):
        ds, inner = self._base()
        engine = PoolEngine.from_engine(inner, n_workers=1)
        engine.preprocess()
        digest_before = engine.index_digest
        delta = random_delta(ds, seed=0)
        try:
            report = engine.apply_delta(delta)
            assert report.strategy == "incremental"
            assert engine.index_digest != digest_before
            fresh = self._fresh_after(delta)
            grid = make_weight_grid(24, 2, seed=3)
            pooled = engine.suggest_many(grid)
            expected = fresh.suggest_many(grid)
            assert [r.function.weights for r in pooled] == [
                r.function.weights for r in expected
            ]
        finally:
            engine.close()

    WRAPPERS = {
        "fallback": lambda inner: FallbackEngine.from_engines([inner]),
        "instrumented": InstrumentedEngine.from_engine,
        "pool": lambda inner: PoolEngine.from_engine(inner, n_workers=1),
        "chaos": ChaosEngine,
    }

    @pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
    def test_wrapper_exposes_the_inner_seam_state(self, wrapper):
        ds, inner = self._base()
        engine = self.WRAPPERS[wrapper](inner).preprocess()
        try:
            delta = random_delta(ds, seed=0)
            assert engine.apply_delta(delta).strategy == "incremental"
            assert engine.refresh().strategy == "refresh"
            assert engine.is_preprocessed
            assert engine.dataset is inner.dataset
            assert engine.index is inner.index
            assert engine.preprocessing_dataset is inner.preprocessing_dataset
            assert engine.journal == inner.journal == (delta,)
        finally:
            if isinstance(engine, PoolEngine):
                engine.close()

    def test_fallback_keeps_a_chaos_tier_through_maintenance(self):
        ds, first = self._base()
        _, second = self._base()
        chain = FallbackEngine.from_engines([ChaosEngine(first), second]).preprocess()
        delta = random_delta(ds, seed=0)
        chain.apply_delta(delta)
        chain.refresh()
        assert chain.active_tiers == ("0:2d", "1:2d")
        assert chain.preprocess_errors == ()
        fresh = self._fresh_after(delta)
        grid = make_weight_grid(24, 2, seed=3)
        assert_engines_equivalent(
            chain, fresh, grid, check_oracle_calls=False, check_payloads=False
        )
        for tier in chain.engines:
            assert_engines_equivalent(tier, fresh, grid, check_oracle_calls=False)

    def test_fallback_rebind_re_preprocesses_built_tiers(self):
        _, inner = self._base()
        chain = FallbackEngine.from_engines([inner]).preprocess()
        rebound = dataset(60, 2, seed=2)
        chain.preprocess(dataset=rebound)
        fresh = fresh_twin(rebound, TwoDConfig())
        grid = make_weight_grid(24, 2, seed=3)
        assert [entry_fingerprint(entry) for entry in chain.suggest_many(grid)] == [
            entry_fingerprint(entry) for entry in fresh.suggest_many(grid)
        ]
        assert chain.preprocessing_dataset.n_items == 60


# --------------------------------------------------------------------------- #
# every registered engine: one delta-vs-rebuild differential each
# --------------------------------------------------------------------------- #
#: Dataset size, dimension and config of each engine family's differentials.
FAMILY_CASES = {
    "2d": (60, 2, TwoDConfig()),
    "exact": (10, 3, ExactConfig(max_hyperplanes=20)),
    "approximate": (16, 3, ApproxConfig(n_cells=16, max_hyperplanes=20)),
}


class TestRegisteredEngines:
    @pytest.mark.parametrize("name", sorted(available_engines()))
    def test_delta_matches_rebuild(self, name):
        """Families run directly; wrappers run over a 2-D inner engine."""
        if name in FAMILY_CASES:
            n, dimension, config = FAMILY_CASES[name]
            wrap = None
        elif name in TestWrapperEngines.WRAPPERS:
            n, dimension, config = FAMILY_CASES["2d"]
            wrap = TestWrapperEngines.WRAPPERS[name]
        else:
            pytest.fail(f"registered engine {name!r} has no delta-vs-rebuild case")
        ds = dataset(n, dimension, seed=2)
        engine = create_engine(ds, fixed_oracle(), config)
        if wrap is not None:
            engine = wrap(engine)
        engine.preprocess()
        try:
            delta = random_delta(ds, seed=0)
            engine.apply_delta(delta)
            fresh = fresh_twin(delta.apply(dataset(n, dimension, seed=2)), config)
            grid = make_weight_grid(16, dimension, seed=3)
            if wrap is None:
                assert_engines_equivalent(engine, fresh, grid)
            else:
                assert_engines_equivalent(
                    engine, fresh, grid, check_oracle_calls=False, check_payloads=False
                )
                assert_engines_equivalent(
                    engine.inner, fresh, grid, check_oracle_calls=False
                )
        finally:
            if isinstance(engine, PoolEngine):
                engine.close()


# --------------------------------------------------------------------------- #
# a maintenance step that raises leaves the engine as it was
# --------------------------------------------------------------------------- #
class Criterion:
    """The fixed oracle's constraint as a callable whose cap can drift in place.

    While ``armed`` it raises instead of judging, standing in for an oracle
    that fails half way through a build.
    """

    def __init__(self, max_fraction: float = 0.60) -> None:
        self.max_fraction = max_fraction
        self.armed = False

    def __call__(self, ordering, ds) -> bool:
        if self.armed:
            raise OracleError("the criterion is armed to fail")
        return ProportionalOracle(
            "race", "African-American", 0.3, max_fraction=self.max_fraction
        ).is_satisfactory(ordering, ds)


def criterion_oracle(criterion: Criterion) -> CountingOracle:
    return CountingOracle(CallableOracle(criterion))


#: Dataset size, dimension, config, the delta, and the strategy the retried
#: delta takes: the exact engine drops the tree it was extending, so it rebuilds.
FAILURE_CASES = {
    "2d-incremental": (
        40, 2, TwoDConfig(), lambda ds: random_delta(ds, seed=0), "incremental"
    ),
    "2d-rebuild": (
        40, 2, TwoDConfig(), lambda ds: random_delta(ds, seed=0, n_inserts=21), "rebuild"
    ),
    "exact-incremental": (
        6, 3, ExactConfig(), lambda ds: insert_only_delta(ds, seed=1), "rebuild"
    ),
    "approximate": (
        16, 3, FAMILY_CASES["approximate"][2], lambda ds: random_delta(ds, seed=0), "rebuild"
    ),
}


class TestFailedMaintenance:
    @pytest.mark.parametrize("case", sorted(FAILURE_CASES))
    def test_failed_delta_leaves_the_engine_unchanged(self, case):
        n, dimension, config, make_delta, retry_strategy = FAILURE_CASES[case]
        ds = dataset(n, dimension, seed=2)
        criterion = Criterion()
        engine = create_engine(ds, criterion_oracle(criterion), config).preprocess()
        delta = make_delta(ds)
        before = payload_bytes(engine)
        criterion.armed = True
        with pytest.raises(OracleError):
            engine.apply_delta(delta)
        criterion.armed = False
        assert payload_bytes(engine) == before
        assert engine.journal == ()
        assert engine.dataset is ds
        assert engine.apply_delta(delta).strategy == retry_strategy
        fresh = create_engine(
            delta.apply(dataset(n, dimension, seed=2)), criterion_oracle(Criterion()), config
        ).preprocess()
        assert_engines_equivalent(engine, fresh, make_weight_grid(16, dimension, seed=3))

    @pytest.mark.parametrize("wrapper", ["2d", *sorted(TestWrapperEngines.WRAPPERS)])
    def test_failed_preprocess_keeps_the_dataset_oracle_and_index(self, wrapper):
        """The plain 2-D engine, and every wrapper over one, commit a new oracle last."""
        ds = dataset(40, 2, seed=1)
        inner = create_engine(ds, criterion_oracle(Criterion()), TwoDConfig())
        engine = inner if wrapper == "2d" else TestWrapperEngines.WRAPPERS[wrapper](inner)
        engine.preprocess()
        try:
            oracle, inner_oracle = engine.oracle, inner.oracle
            before = payload_bytes(inner)
            armed = Criterion()
            armed.armed = True
            # A chain whose every tier failed reports them in one ConfigurationError.
            error = ConfigurationError if wrapper == "fallback" else OracleError
            with pytest.raises(error):
                engine.preprocess(dataset(30, 2, seed=5), criterion_oracle(armed))
            assert engine.dataset is inner.dataset is ds
            assert engine.oracle is oracle
            assert inner.oracle is inner_oracle
            assert payload_bytes(inner) == before
        finally:
            if isinstance(engine, PoolEngine):
                engine.close()


# --------------------------------------------------------------------------- #
# refresh after the oracle's criterion drifted in place
# --------------------------------------------------------------------------- #
#: The drifted cap of each family; each changes that family's index, so a
#: refresh that kept the old index would fail the differential.
DRIFTED_CAP = {"2d": 0.5, "exact": 0.7, "approximate": 0.5}


class TestRefresh:
    @pytest.mark.parametrize("family", sorted(FAMILY_CASES))
    def test_refresh_equals_a_fresh_preprocess_under_the_drifted_oracle(self, family):
        """2-D re-sweeps its cached exchanges, exact re-evaluates its cached
        tree, and approximate rebuilds."""
        n, dimension, config = FAMILY_CASES[family]
        ds = dataset(n, dimension, seed=2)
        criterion = Criterion()
        engine = create_engine(ds, criterion_oracle(criterion), config).preprocess()
        criterion.max_fraction = DRIFTED_CAP[family]
        fresh = create_engine(
            ds, criterion_oracle(Criterion(DRIFTED_CAP[family])), config
        ).preprocess()
        assert payload_bytes(engine) != payload_bytes(fresh)
        assert engine.refresh().strategy == "refresh"
        assert_engines_equivalent(engine, fresh, make_weight_grid(16, dimension, seed=3))

    def test_refresh_if_stale_refreshes_only_a_drifted_engine(self):
        n, dimension, config = FAMILY_CASES["2d"]
        criterion = Criterion()
        engine = create_engine(
            dataset(n, dimension, seed=2), criterion_oracle(criterion), config
        ).preprocess()
        report, maintenance = refresh_if_stale(engine)
        assert report.is_fresh and maintenance is None
        criterion.max_fraction = DRIFTED_CAP["2d"]
        report, maintenance = refresh_if_stale(engine)
        assert not report.is_fresh
        assert maintenance.strategy == "refresh"
        after = check_engine_freshness(engine)
        assert after.is_fresh and after.n_checked > 0


# --------------------------------------------------------------------------- #
# fast smoke target for scripts/check_all.py
# --------------------------------------------------------------------------- #
class TestDeltaSmoke:
    def test_delta_smoke(self):
        """Tiny 2-D delta differential: the check_all.py dynamic gate."""
        ds = dataset(25, 2, seed=4)
        engine = create_engine(ds, fixed_oracle(), TwoDConfig()).preprocess()
        delta = random_delta(ds, seed=4, deletes=(2,), update_index=3)
        report = engine.apply_delta(delta)
        assert isinstance(report, MaintenanceReport)
        fresh = fresh_twin(delta.apply(dataset(25, 2, seed=4)), TwoDConfig())
        assert_engines_equivalent(engine, fresh, make_weight_grid(12, 2, seed=8))


# --------------------------------------------------------------------------- #
# DatasetDelta mechanics
# --------------------------------------------------------------------------- #
class TestDatasetDelta:
    def test_to_dict_is_json_ready(self):
        ds = dataset(20, 2, seed=1)
        delta = random_delta(ds, seed=0)
        payload = delta.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["format"] == DELTA_FORMAT
        counts = (len(payload["inserts"]), len(payload["deletes"]), len(payload["updates"]))
        assert counts == (3, 2, 1)

    def test_counts_and_staleness(self):
        ds = dataset(20, 2, seed=1)
        delta = random_delta(ds, seed=0)
        assert (delta.n_inserted, delta.n_deleted, delta.n_updated) == (3, 2, 1)
        assert delta.n_changes == 6
        assert delta.staleness_fraction(20) == pytest.approx(6 / 20)
        assert not delta.is_empty
        assert not delta.insert_only

    def test_index_map_is_monotone_over_survivors(self):
        ds = dataset(10, 2, seed=1)
        delta = random_delta(ds, seed=0, deletes=(1, 5), update_index=7)
        mapping = delta.index_map(10)
        survivors = sorted(mapping)
        assert 1 not in mapping and 5 not in mapping
        images = [mapping[i] for i in survivors]
        assert images == sorted(images)
        mutated = delta.apply(ds)
        for old, new in mapping.items():
            if old != 7:  # the updated row moved in score space
                assert tuple(ds.scores[old]) == tuple(mutated.scores[new])

    def test_touched_new_indices_cover_inserts_and_updates(self):
        ds = dataset(10, 2, seed=1)
        delta = random_delta(ds, seed=0, deletes=(1, 5), update_index=7)
        touched = delta.touched_new_indices(10, 10 - 2 + 3)
        mapping = delta.index_map(10)
        assert mapping[7] in touched
        assert len(touched) == delta.n_inserted + delta.n_updated

    def test_validation_rejects_bad_shapes(self):
        ds = dataset(10, 2, seed=1)
        with pytest.raises(DatasetError):
            DatasetDelta(deletes=(1, 1))  # duplicate delete
        with pytest.raises(DatasetError):
            DatasetDelta(deletes=(1,), updates=((1, (0.5, 0.5)),))  # overlap
        with pytest.raises(DatasetError):
            DatasetDelta(
                inserts=((0.5, 0.5),), insert_types={}
            ).apply(ds)  # missing type attributes
