"""Serial-vs-pooled differential tests: the PR-9 bit-identity proof.

Every test here runs the same weight grid through a serial engine and a
:class:`~repro.parallel.pool.PoolEngine` wrapping an *independently
preprocessed* twin, and asserts — via the :mod:`differential` harness —
exact answer fingerprints, matching oracle-call budgets, and byte-for-byte
equal index payloads.  Covered:

* all three engine families (``2d``, ``exact``, ``approximate``) at worker
  counts 1, 2 and 4;
* per-query isolation, checked against the test-owned specification
  :func:`differential.per_query_entries` (one ``suggest`` per row): invalid
  weight rows and payload-keyed :class:`ChaosOracle` faults come back as the
  same ``QueryFailure`` records (same rows, error types and messages) in
  worker processes as in the reference loop, and the two pass-through errors
  still raise;
* worker-death isolation: a query whose oracle evaluation kills its worker
  process poisons only its own shard — every other shard still answers
  bit-identically to the serial engine.

Multi-worker tests are skipped on single-CPU machines, where a process pool
proves nothing about parallel execution — set ``REPRO_FORCE_POOL=1`` to run
them anyway (the fork/IPC path works fine on one CPU, just without
concurrency).  ``test_differential_smoke_workers_1_and_2`` always runs, on
any machine: it is the fast smoke target ``scripts/check_all.py --quick``
invokes.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from differential import (
    assert_engines_equivalent,
    entry_fingerprint,
    make_weight_grid,
    payload_bytes,
    per_query_entries,
)
from repro.core.engine import ApproxConfig, ExactConfig, TwoDConfig, create_engine
from repro.data.synthetic import make_compas_like
from repro.exceptions import (
    ConfigurationError,
    NoSatisfactoryFunctionError,
    NotPreprocessedError,
)
from repro.fairness.oracle import CallableOracle, CountingOracle, FairnessOracle
from repro.fairness.proportional import ProportionalOracle
from repro.parallel.pool import PoolConfig, PoolEngine, QueryFailure
from repro.resilience.chaos import ChaosOracle

pytestmark = pytest.mark.parallel

MULTIPROCESS = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 and os.environ.get("REPRO_FORCE_POOL") != "1",
    reason="multi-worker pool tests prove nothing on one CPU "
    "(set REPRO_FORCE_POOL=1 to run them anyway)",
)

ATTRIBUTES = ["c_days_from_compas", "juv_other_count", "start"]

# (dimension, dataset size, dataset seed, engine config) per family.  Sizes
# are small so even the exact pipeline preprocesses in well under a second;
# seeds are chosen so the FM1 constraint is satisfiable (the 2-D sweep finds
# non-empty satisfactory intervals).
FAMILIES = {
    "2d": (2, 40, 7, TwoDConfig()),
    "exact": (3, 24, 11, ExactConfig(max_hyperplanes=40)),
    "approximate": (3, 40, 11, ApproxConfig(n_cells=64, max_hyperplanes=40)),
}

WORKER_COUNTS = [
    1,
    pytest.param(2, marks=MULTIPROCESS),
    pytest.param(4, marks=MULTIPROCESS),
]


def _dataset(dimension: int, n_items: int, seed: int = 11):
    return make_compas_like(n=n_items, seed=seed).project(ATTRIBUTES[:dimension])


def _counting_oracle(dataset) -> CountingOracle:
    return CountingOracle(
        ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
    )


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family_pair(request):
    """A serial engine and an independently preprocessed pool-inner twin.

    Two separate preprocessing runs (separate counting oracles) so the
    payload comparison proves preprocessing determinism, not object identity.
    """
    name = request.param
    dimension, n_items, seed, config = FAMILIES[name]
    dataset = _dataset(dimension, n_items, seed=seed)
    serial = create_engine(dataset, _counting_oracle(dataset), config).preprocess()
    inner = create_engine(dataset, _counting_oracle(dataset), config).preprocess()
    return name, dimension, serial, inner


@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
def test_pool_matches_serial(family_pair, n_workers):
    name, dimension, serial, inner = family_pair
    with PoolEngine.from_engine(inner, n_workers=n_workers) as pool:
        grid = make_weight_grid(12, dimension, seed=2)
        assert_engines_equivalent(serial, pool, grid)


@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
def test_pool_is_invariant_to_shard_size(family_pair, n_workers):
    """Shard boundaries are serving topology: size 1, 5 and q must all agree."""
    name, dimension, serial, inner = family_pair
    grid = make_weight_grid(7, dimension, seed=8)
    reference = [entry_fingerprint(entry) for entry in serial.suggest_many(grid)]
    for shard_size in (1, 5, len(grid)):
        with PoolEngine.from_engine(
            inner, n_workers=n_workers, shard_size=shard_size
        ) as pool:
            entries = pool.suggest_many(grid)
        assert [entry_fingerprint(entry) for entry in entries] == reference, (
            f"{name} pool diverges from serial at shard_size={shard_size}"
        )


def test_differential_smoke_workers_1_and_2():
    """The ``check_all.py --quick`` target: one tiny dataset, workers 1 and 2.

    Deliberately unconditional — even on a single-CPU machine the 2-worker
    run exercises the real fork/IPC/merge path, it is just not concurrent.
    """
    dataset = _dataset(2, 24, seed=7)
    serial = create_engine(dataset, _counting_oracle(dataset), TwoDConfig()).preprocess()
    inner = create_engine(dataset, _counting_oracle(dataset), TwoDConfig()).preprocess()
    grid = make_weight_grid(6, 2, seed=9)
    for n_workers in (1, 2):
        with PoolEngine.from_engine(inner, n_workers=n_workers) as pool:
            assert_engines_equivalent(serial, pool, grid)


# --------------------------------------------------------------------------- #
# chaos path: pooled faults must match the per-query reference
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
@pytest.mark.parametrize("family", ["approximate", "exact"])
def test_pooled_chaos_faults_match_single_process_verdicts(family, n_workers):
    """Payload-keyed chaos injects the same ``QueryFailure`` verdicts in the
    pool as the per-query reference loop does in-process: same failing rows,
    same error types and messages, and bit-identical answers for clean rows.
    (The 2-D family answers from its intervals alone, so its oracle never
    runs online and chaos cannot reach it.)"""
    dimension, n_items, seed, config = FAMILIES[family]
    dataset = _dataset(dimension, n_items, seed=seed)

    def chaotic_oracle() -> ChaosOracle:
        # Built disabled so the two preprocessing runs stay fault-free; the
        # tests flip ``enabled`` before serving starts (the pool snapshots
        # the oracle when its first multi-worker batch spins the executor,
        # so the flip reaches the workers).
        return ChaosOracle(
            ProportionalOracle.at_most_share_plus_slack(
                dataset, "race", "African-American", k=0.3, slack=0.10
            ),
            failure_rate=0.25,
            seed=13,
            enabled=False,
        )

    engine_a = create_engine(dataset, chaotic_oracle(), config).preprocess()
    engine_b = create_engine(dataset, chaotic_oracle(), config).preprocess()
    engine_a.oracle.enabled = True
    engine_b.oracle.enabled = True

    grid = make_weight_grid(16, dimension, seed=4)
    reference = per_query_entries(engine_a, grid)
    with PoolEngine.from_engine(engine_b, n_workers=n_workers) as pool:
        entries = pool.suggest_many(grid)
    assert [entry_fingerprint(entry) for entry in entries] == [
        entry_fingerprint(entry) for entry in reference
    ]
    failures = [entry for entry in entries if isinstance(entry, QueryFailure)]
    assert failures, "the chaos seed must fault some queries for this test to bite"
    assert len(failures) < len(entries), "some queries must survive the chaos"
    for failure in failures:
        assert failure.error_type == "InjectedFault"
        assert failure.message == "chaos: injected oracle failure"
    assert payload_bytes(engine_a) == payload_bytes(engine_b)


# --------------------------------------------------------------------------- #
# per-query isolation: bad rows fail alone, the pass-through errors raise
# --------------------------------------------------------------------------- #
ISOLATION_WORKERS = [1, pytest.param(2, marks=MULTIPROCESS)]

#: Weight rows that make no scoring function at dimension ``d``, one per
#: rule the function checks.
INVALID_ROWS = {
    "negative": lambda d: [-1.0] + [0.5] * (d - 1),
    "all-zero": lambda d: [0.0] * d,
    "nan": lambda d: [np.nan] + [0.5] * (d - 1),
    "infinite": lambda d: [0.5] * (d - 1) + [np.inf],
}


@pytest.fixture(scope="module")
def family_engines():
    """One preprocessed engine per family, shared by the isolation tests."""
    engines = {}
    for name, (dimension, n_items, seed, config) in FAMILIES.items():
        dataset = _dataset(dimension, n_items, seed=seed)
        engines[name] = create_engine(dataset, _counting_oracle(dataset), config).preprocess()
    return engines


@pytest.mark.parametrize("n_workers", ISOLATION_WORKERS)
@pytest.mark.parametrize("kind", sorted(INVALID_ROWS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_invalid_weight_rows_fail_per_query_not_per_batch(
    family_engines, family, kind, n_workers
):
    """One invalid row (in the second shard at two workers) fails alone."""
    engine = family_engines[family]
    dimension = FAMILIES[family][0]
    grid = make_weight_grid(6, dimension, seed=5)
    grid[4] = INVALID_ROWS[kind](dimension)
    bare = engine.suggest_many(np.delete(grid, 4, axis=0))
    with PoolEngine.from_engine(engine, n_workers=n_workers) as pool:
        entries = pool.suggest_many(grid)
    assert pool.metrics.counter_total("pool.query_failures") == 1
    failure = entries.pop(4)
    assert isinstance(failure, QueryFailure)
    assert (failure.index, failure.error_type) == (4, "ScoringFunctionError")
    assert entry_fingerprint(failure) == entry_fingerprint(per_query_entries(engine, grid)[4])
    assert [entry_fingerprint(entry) for entry in entries] == [
        entry_fingerprint(entry) for entry in bare
    ]


def _never_satisfied(ordering, dataset) -> bool:
    return False


@pytest.mark.parametrize("n_workers", ISOLATION_WORKERS)
def test_no_satisfactory_function_passes_through(n_workers):
    """An answer about the dataset raises out of the batch instead of becoming records."""
    dimension, n_items, seed, config = FAMILIES["approximate"]
    dataset = _dataset(dimension, n_items, seed=seed)
    never = CallableOracle(_never_satisfied, "never")
    engine = create_engine(dataset, never, config).preprocess()
    grid = make_weight_grid(4, dimension, seed=1)
    with pytest.raises(NoSatisfactoryFunctionError):
        per_query_entries(engine, grid)
    with PoolEngine.from_engine(engine, n_workers=n_workers) as pool:
        with pytest.raises(NoSatisfactoryFunctionError):
            pool.suggest_many(grid)


def test_not_preprocessed_error_passes_through(family_engines, monkeypatch):
    """A caller bug raised by the engine's batch call is not isolated row by row."""
    engine = family_engines["2d"]

    def not_preprocessed(weights_matrix):
        raise NotPreprocessedError("call preprocess() first")

    def never(function):
        raise AssertionError("a pass-through error must not be retried per query")

    with PoolEngine.from_engine(engine, n_workers=1) as pool:
        monkeypatch.setattr(engine, "suggest_many", not_preprocessed)
        monkeypatch.setattr(engine, "suggest", never)
        with pytest.raises(NotPreprocessedError):
            pool.suggest_many(make_weight_grid(3, 2, seed=0))


@pytest.mark.parametrize("n_workers", ISOLATION_WORKERS)
def test_wrong_shape_still_raises(family_engines, n_workers):
    """A matrix of the wrong width is the caller's error, not a per-query fault."""
    with PoolEngine.from_engine(family_engines["approximate"], n_workers=n_workers) as pool:
        with pytest.raises(ConfigurationError, match="weight matrix"):
            pool.suggest_many(np.ones((3, 5)))


def test_query_failures_are_frozen_records():
    failure = QueryFailure(3, (0.0, 0.0), "ScoringFunctionError", "at least one weight")
    with pytest.raises(FrozenInstanceError):
        failure.index = 0  # type: ignore[misc]
    assert failure == QueryFailure(3, (0.0, 0.0), "ScoringFunctionError", "at least one weight")


# --------------------------------------------------------------------------- #
# worker death: a killed worker poisons only its own shard
# --------------------------------------------------------------------------- #
class RecordingOracle(FairnessOracle):
    """Forwards to ``inner`` while recording each ordering's payload hash."""

    def __init__(self, inner: FairnessOracle) -> None:
        self.inner = inner
        self.seen: list[bytes] = []

    def is_satisfactory(self, ordering: np.ndarray, dataset) -> bool:
        self.seen.append(_ordering_hash(ordering))
        return self.inner.is_satisfactory(ordering, dataset)

    def describe(self) -> str:
        return f"recording({self.inner.describe()})"


class KillerOracle(FairnessOracle):
    """Kills its *process* when asked to evaluate a lethal ordering.

    ``os._exit`` models a hard worker crash (segfault, OOM kill): no
    exception, no cleanup, the process is simply gone — exactly the failure
    ``BrokenProcessPool`` isolation exists for.  Lethality is keyed by the
    ordering's payload hash, so the same queries are lethal on every retry.
    """

    def __init__(self, inner: FairnessOracle, lethal: frozenset) -> None:
        self.inner = inner
        self.lethal = lethal

    def is_satisfactory(self, ordering: np.ndarray, dataset) -> bool:
        if _ordering_hash(ordering) in self.lethal:
            os._exit(3)
        return self.inner.is_satisfactory(ordering, dataset)

    def describe(self) -> str:
        return f"killer({self.inner.describe()})"


def _ordering_hash(ordering: np.ndarray) -> bytes:
    payload = np.ascontiguousarray(ordering, dtype=np.int64).tobytes()
    return hashlib.blake2b(payload, digest_size=8).digest()


@MULTIPROCESS
def test_dead_worker_poisons_only_its_own_shard():
    # The approximate family: its online phase evaluates the oracle once per
    # query (is the proposed function already satisfactory?), which gives the
    # killer a per-query ordering to key on.  The 2-D sweep would not work
    # here — it serves purely from cached intervals, no online oracle calls.
    dimension, n_items, seed, config = FAMILIES["approximate"]
    dataset = _dataset(dimension, n_items, seed=seed)
    base = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.10
    )
    serial = create_engine(dataset, base, config).preprocess()
    grid = make_weight_grid(8, dimension, seed=6)
    reference = serial.suggest_many(grid)

    # Map each query row to the ordering hashes its serving evaluates, then
    # pick a poison row with at least one hash exclusive to it (shard size 1:
    # one query per shard, so only the poison shard's worker dies).
    recorder = RecordingOracle(base)
    probe = create_engine(dataset, recorder, config).preprocess()
    per_row: list[set] = []
    for row in range(len(grid)):
        recorder.seen = []
        probe.suggest_many(grid[row : row + 1])
        per_row.append(set(recorder.seen))
    poison_row, lethal = None, frozenset()
    for row, hashes in enumerate(per_row):
        others = set().union(*(h for r, h in enumerate(per_row) if r != row))
        exclusive = hashes - others
        if exclusive:
            poison_row, lethal = row, frozenset(exclusive)
            break
    assert poison_row is not None, "no query with an exclusive ordering; grow the grid"

    inner = create_engine(dataset, base, config).preprocess()
    with PoolEngine.from_engine(inner, n_workers=2, shard_size=1) as pool:
        # The killer must only ever run inside worker processes: swap it in
        # after preprocessing, before the first batch snapshots the oracle.
        pool.oracle = KillerOracle(base, lethal)
        entries = pool.suggest_many(grid)
        assert pool.metrics.counter("pool.worker_restarts").value >= 1
        assert pool.metrics.counter("pool.shard_failures").value == 1

    assert len(entries) == len(grid)
    for row, entry in enumerate(entries):
        if row == poison_row:
            assert isinstance(entry, QueryFailure)
            assert entry.index == row
            assert entry.weights == tuple(grid[row].tolist())
            assert entry.error_type == "BrokenProcessPool"
            assert "twice" in entry.message
        else:
            assert entry_fingerprint(entry) == entry_fingerprint(reference[row]), (
                f"row {row} was poisoned by shard {poison_row}'s worker death"
            )


# --------------------------------------------------------------------------- #
# pool construction contracts
# --------------------------------------------------------------------------- #
def test_pool_rejects_non_persistable_inner():
    from repro.obs.instrument import InstrumentedConfig

    with pytest.raises(ConfigurationError, match="persistable"):
        PoolConfig(inner=InstrumentedConfig(inner=TwoDConfig()))


def test_pool_requires_preprocessing_before_serving():
    dataset = _dataset(2, 20, seed=1)
    pool = PoolEngine(dataset, _counting_oracle(dataset), PoolConfig(n_workers=1))
    with pytest.raises(NotPreprocessedError):
        pool.suggest_many(make_weight_grid(3, 2, seed=0))
