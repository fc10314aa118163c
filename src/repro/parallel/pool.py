"""The engine pool: ``suggest_many`` sharded across worker processes.

:class:`PoolEngine` is a :class:`~repro.core.engine.QueryEngine` registered in
the ordinary engine registry (name ``"pool"``, configured by the typed
:class:`PoolConfig`) — per the PR-2 seam discipline it is a registered engine
*wrapping* a persistable inner engine, not a facade branch.  The offline
phase preprocesses the inner engine once in the parent and saves it through
:func:`repro.io.index_store.save_engine`; every worker process loads that one
read-only index file exactly once (in its pool initializer), after pinning
the file's checksum-envelope digest against the digest the parent recorded —
a worker that sees different index bytes refuses to serve.

Serving semantics:

* ``suggest_many`` splits the weight matrix into contiguous shards, fans the
  shards over the pool, and merges the per-shard answers **in shard order**
  — so the output is bit-identical to the serial engine's regardless of
  worker count or completion order;
* every worker serves through a single-tier
  :class:`~repro.resilience.fallback.FallbackEngine` chain around the loaded
  engine, so per-query faults come back as structured
  :class:`~repro.resilience.fallback.QueryFailure` records with exactly the
  tier labels a single-process chain would produce (the parent re-bases the
  shard-local failure indices to batch positions);
* a worker death (``BrokenProcessPool``) poisons only its own shard's
  queries: the affected shards are retried once, each in a fresh isolated
  single-worker executor, and a shard that kills its worker again
  deterministically comes back as :class:`QueryFailure` records for that
  shard alone — other shards' answers are unaffected;
* :class:`~repro.exceptions.NotPreprocessedError` and
  :class:`~repro.exceptions.NoSatisfactoryFunctionError` pass through from
  workers to the caller, exactly as the serial chain passes them through.

Observability: the parent increments ``pool.*`` counters on an injectable
:class:`~repro.obs.metrics.MetricsRegistry` and opens one ``pool.shard``
stage span per shard when a recorder is active; workers detach any inherited
recorder state (:func:`repro.obs.trace.reset_stage_recorder`) and re-seed
their RNG per shard from :func:`repro.parallel.shards.derive_shard_seed`.

``n_workers=1`` serves inline through the same single-tier chain in the
parent process — no worker processes, no pickling, identical results.
"""

from __future__ import annotations

import tempfile
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing import get_context
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.engine import (
    EngineConfig,
    EngineWrapper,
    as_weight_matrix,
    create_engine,
    engine_name_for_config,
    get_engine,
    register_engine,
)
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError, NotPreprocessedError
from repro.fairness.oracle import FairnessOracle
from repro.io.index_store import load_engine, read_store_digest, save_engine
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import reset_stage_recorder, stage_span
from repro.parallel.shards import derive_shard_seed, plan_shards, shard_size_for
from repro.resilience.fallback import _PASS_THROUGH, FallbackEngine, QueryFailure, TierError

__all__ = ["PoolConfig", "PoolEngine"]


@dataclass(frozen=True)
class PoolConfig:
    """Configuration of a process-pool serving engine.

    Attributes
    ----------
    inner:
        Typed config of the engine every worker serves with.  Must select a
        *persistable* registered engine (the index is shared through one
        saved file), which rules out the serving-layer composites —
        ``fallback``, ``instrumented`` and ``pool`` itself.  ``None`` selects
        the default for the dataset's dimensionality at construction time
        (the 2-D ray sweep in 2-D, the exact pipeline otherwise).
    n_workers:
        Worker processes in the pool (``1`` = serve inline, no processes).
    shard_size:
        Queries per shard; defaults to one contiguous slice per worker.
    start_method:
        Optional ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); defaults to the platform default.
    seed:
        Base seed for the deterministic per-shard worker RNG re-seeding.
    """

    inner: EngineConfig | None = None
    n_workers: int = 2
    shard_size: int | None = None
    start_method: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.shard_size is not None and self.shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be >= 1, got {self.shard_size}"
            )
        if self.inner is not None:
            _require_persistable_config(self.inner)


def _require_persistable_config(config: Any) -> str:
    """Resolve a config to its engine name, requiring a persistable engine."""
    name = engine_name_for_config(config)
    if not get_engine(name).capabilities().persistable:
        raise ConfigurationError(
            f"the pool's inner engine must be persistable (its index is shared "
            f"with the workers through one saved file); engine {name!r} is not"
        )
    return name


# ---------------------------------------------------------------------- #
# worker-process side
# ---------------------------------------------------------------------- #
_CHAIN: FallbackEngine | None = None
_ORACLE: FairnessOracle | None = None
_BASE_SEED: int = 0
_RNG: np.random.Generator | None = None


def _init_pool_worker(
    index_path: str,
    oracle: FairnessOracle,
    base_seed: int,
    expected_digest: str | None,
) -> None:
    """Load the shared index exactly once per worker process.

    The digest the parent recorded when it saved the index pins the exact
    bytes every worker must serve from; a mismatch means the file changed
    underneath the pool and the worker refuses to start (the resulting
    ``BrokenProcessPool`` surfaces the corruption loudly instead of serving
    silently divergent answers).
    """
    global _CHAIN, _ORACLE, _BASE_SEED
    reset_stage_recorder()
    if expected_digest is not None:
        digest = read_store_digest(index_path)
        if digest != expected_digest:
            from repro.exceptions import IndexIntegrityError

            raise IndexIntegrityError(
                f"the shared index at {index_path} changed underneath the pool "
                f"(expected digest {expected_digest[:12]}…, found "
                f"{str(digest)[:12]}…)",
                path=index_path,
            )
    engine = load_engine(index_path, oracle)
    _CHAIN = FallbackEngine.from_engines([engine]).preprocess()
    _ORACLE = oracle
    _BASE_SEED = base_seed


def _pool_worker_task(
    shard_index: int, rows: np.ndarray
) -> tuple[list, int | float]:
    """Serve one shard through the worker's single-tier chain.

    Returns ``(entries, oracle_calls_delta)`` where entries are
    :class:`SuggestionResult` / :class:`QueryFailure` records with
    *shard-local* indices (the parent re-bases them).  The two pass-through
    exception types propagate through the future to the parent.
    """
    global _RNG
    if _CHAIN is None:
        raise NotPreprocessedError("pool worker initialised without an index")
    _RNG = np.random.default_rng(derive_shard_seed(_BASE_SEED, shard_index))
    before = getattr(_ORACLE, "calls", None)
    entries = _CHAIN.suggest_many(rows)
    delta = (getattr(_ORACLE, "calls", 0) - before) if before is not None else 0
    return entries, delta


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #
@register_engine("pool", PoolConfig)
class PoolEngine(EngineWrapper):
    """Process-pool serving over one persistable inner engine; see module docstring."""

    def __init__(
        self,
        dataset: Dataset,
        oracle: FairnessOracle,
        config: PoolConfig | None = None,
        *,
        inner_engine: Any = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        config = config if config is not None else PoolConfig()
        if not isinstance(config, PoolConfig):
            raise ConfigurationError(
                f"PoolEngine expects a PoolConfig, got {type(config).__name__}"
            )
        self.oracle = oracle
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if inner_engine is None:
            inner_config = (
                config.inner
                if config.inner is not None
                else self._default_inner(dataset)
            )
            _require_persistable_config(inner_config)
            config = replace(config, inner=inner_config)
            inner_engine = create_engine(dataset, oracle, inner_config)
        else:
            _require_persistable_config(inner_engine.config)
        self.config = config
        self.inner = inner_engine
        self._executor: ProcessPoolExecutor | None = None
        self._local_chain: FallbackEngine | None = None
        self._tempdir: tempfile.TemporaryDirectory | None = None
        self._index_path: Path | None = None
        self._index_digest: str | None = None
        #: Cumulative oracle calls made inside worker processes (the parent
        #: oracle's own ``calls`` counter never sees them).
        self.remote_oracle_calls: int | float = 0

    @staticmethod
    def _default_inner(dataset: Dataset) -> EngineConfig:
        from repro.core.engine import ExactConfig, TwoDConfig

        if dataset.n_attributes == 2:
            return TwoDConfig()
        return ExactConfig()

    @classmethod
    def from_engine(
        cls,
        engine: Any,
        *,
        n_workers: int = 2,
        shard_size: int | None = None,
        start_method: str | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> "PoolEngine":
        """Wrap an already-constructed (typically preprocessed) engine in a pool.

        The engine's own typed config stays authoritative — it is what the
        workers rebuild from the shared index file.
        """
        return cls(
            engine.dataset,
            engine.oracle,
            PoolConfig(
                inner=engine.config,
                n_workers=n_workers,
                shard_size=shard_size,
                start_method=start_method,
                seed=seed,
            ),
            inner_engine=engine,
            metrics=metrics,
        )

    # ------------------------------------------------------------------ #
    # offline phase
    # ------------------------------------------------------------------ #
    def preprocess(
        self, dataset: Dataset | None = None, oracle: FairnessOracle | None = None
    ) -> "PoolEngine":
        """Preprocess the inner engine (if needed) and publish its index file.

        A new oracle is committed only once the inner preprocess succeeds.
        """
        if not self.inner.is_preprocessed or dataset is not None or oracle is not None:
            self.inner.preprocess(dataset, oracle)
        if oracle is not None:
            self.oracle = oracle
        self._publish_index()
        return self

    @property
    def index_digest(self) -> str | None:
        """Checksum-envelope digest of the published shared index file."""
        return self._index_digest

    def _publish_index(self) -> None:
        """Save the inner engine to the pool-owned index file workers load."""
        if self._tempdir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-pool-")
        path = Path(self._tempdir.name) / "index.json"
        save_engine(self.inner, path)
        self._index_path = path
        self._index_digest = read_store_digest(path)
        # Workers of an existing pool hold the previous index: retire them.
        self._shutdown_executor()
        self._local_chain = None

    def _ensure_published(self) -> None:
        if self._index_path is None:
            if not self.inner.is_preprocessed:
                raise NotPreprocessedError("call preprocess() first")
            self._publish_index()

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta: Any) -> Any:
        """Apply a dataset delta to the inner engine and republish its index.

        Republishing rewrites the pool-owned index file and re-pins its
        checksum digest, which retires the current executor: the next batch
        spins up fresh workers that load the maintained index.  The delta
        therefore propagates to every worker through the same digest-pinning
        mechanism that guards against index corruption — a worker can never
        serve from pre-delta bytes.
        """
        report = self.inner.apply_delta(delta)
        self.metrics.counter("pool.index_republished").inc()
        self._publish_index()
        return report

    def refresh(self) -> Any:
        """Refresh the inner engine's oracle-dependent stages and republish."""
        report = self.inner.refresh()
        self.metrics.counter("pool.index_republished").inc()
        self._publish_index()
        return report

    # ------------------------------------------------------------------ #
    # online phase (``suggest`` is inherited: a single query never amortises
    # the IPC round-trip, so the inner engine answers it in-process)
    # ------------------------------------------------------------------ #
    def suggest_many(self, weights_matrix: Any) -> list:
        """Answer a batch across the pool; see the module docstring for semantics."""
        matrix = as_weight_matrix(weights_matrix, self.dataset.n_attributes)
        self._ensure_published()
        q = matrix.shape[0]
        self.metrics.counter("pool.batches").inc()
        self.metrics.counter("pool.queries").inc(q)
        if q == 0:
            return []
        if self.config.n_workers == 1:
            return self._ensure_local_chain().suggest_many(matrix)

        shard_size = (
            self.config.shard_size
            if self.config.shard_size is not None
            else shard_size_for(q, self.config.n_workers)
        )
        bounds = plan_shards(q, shard_size)
        self.metrics.counter("pool.shards").inc(len(bounds))

        results_by_shard: dict[int, list] = {}
        retry: list[int] = []
        executor = self._ensure_executor(len(bounds))
        futures: list[Future] = [
            executor.submit(_pool_worker_task, shard, matrix[lo:hi])
            for shard, (lo, hi) in enumerate(bounds)
        ]
        # Consume strictly in shard-submission order: completion order never
        # influences the merged output, only how long the parent blocks.
        for shard, ((lo, hi), future) in enumerate(zip(bounds, futures)):
            with stage_span("pool.shard", shard=shard, n_queries=hi - lo) as span:
                try:
                    entries, oracle_delta = future.result()
                except _PASS_THROUGH:
                    for outstanding in futures[shard + 1 :]:
                        outstanding.cancel()
                    raise
                except BrokenProcessPool:
                    # The executor is dead; every unfinished shard lands here
                    # too.  Completed shards keep their results.
                    self._shutdown_executor()
                    retry.append(shard)
                    if span is not None:
                        span.set("broken", True)
                    continue
                self._account_shard(shard, entries, oracle_delta, results_by_shard)
                if span is not None:
                    span.set("n_failures", _failure_count(entries))

        if retry:
            # Retry each affected shard once, isolated in its own fresh
            # single-worker executor: a shard whose queries deterministically
            # kill a worker fails alone instead of re-poisoning a shared pool.
            self.metrics.counter("pool.worker_restarts").inc(len(retry))
            for shard in retry:
                lo, hi = bounds[shard]
                with stage_span(
                    "pool.shard", shard=shard, n_queries=hi - lo, retry=True
                ) as span:
                    try:
                        entries, oracle_delta = self._run_isolated(
                            shard, matrix[lo:hi]
                        )
                    except _PASS_THROUGH:
                        raise
                    except BrokenProcessPool as error:
                        self.metrics.counter("pool.shard_failures").inc()
                        record = TierError(
                            "pool",
                            type(error).__name__,
                            f"shard {shard} killed its worker process twice; "
                            "its queries are unanswerable",
                        )
                        entries = [
                            QueryFailure(
                                row, tuple(matrix[lo + row].tolist()), (record,)
                            )
                            for row in range(hi - lo)
                        ]
                        oracle_delta = 0
                        if span is not None:
                            span.set("broken", True)
                    self._account_shard(
                        shard, entries, oracle_delta, results_by_shard
                    )

        output: list = []
        for shard, (lo, _) in enumerate(bounds):
            for entry in results_by_shard[shard]:
                if isinstance(entry, QueryFailure):
                    # Re-base the shard-local failure index to the batch row.
                    entry = QueryFailure(lo + entry.index, entry.weights, entry.errors)
                    self.metrics.counter("pool.query_failures").inc()
                output.append(entry)
        return output

    def _account_shard(
        self,
        shard: int,
        entries: list,
        oracle_delta: int | float,
        results_by_shard: dict[int, list],
    ) -> None:
        results_by_shard[shard] = entries
        self.remote_oracle_calls += oracle_delta
        if oracle_delta:
            self.metrics.counter("pool.oracle_calls").inc(oracle_delta)

    def _run_isolated(
        self, shard: int, rows: np.ndarray
    ) -> tuple[list, int | float]:
        """Run one shard in a throwaway single-worker executor."""
        with self._make_executor(1) as isolated:
            return isolated.submit(_pool_worker_task, shard, rows).result()

    # ------------------------------------------------------------------ #
    # pool plumbing
    # ------------------------------------------------------------------ #
    def _make_executor(self, max_workers: int) -> ProcessPoolExecutor:
        context = (
            get_context(self.config.start_method)
            if self.config.start_method is not None
            else None
        )
        return ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=context,
            initializer=_init_pool_worker,
            initargs=(
                str(self._index_path),
                self.oracle,
                self.config.seed,
                self._index_digest,
            ),
        )

    def _ensure_executor(self, n_shards: int) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = self._make_executor(
                min(self.config.n_workers, max(1, n_shards))
            )
        return self._executor

    def _ensure_local_chain(self) -> FallbackEngine:
        """The parent-process single-tier chain of the ``n_workers=1`` path.

        The same chain shape the workers build, so the inline path returns
        exactly the entries (and tier labels) a one-worker pool would.
        """
        if self._local_chain is None:
            self._local_chain = FallbackEngine.from_engines([self.inner]).preprocess()
        return self._local_chain

    def _shutdown_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Retire the worker pool and remove the published index file."""
        self._shutdown_executor()
        self._local_chain = None
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None
            self._index_path = None
            self._index_digest = None

    def __enter__(self) -> "PoolEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:  # noqa: BLE001 — interpreter teardown is best-effort
            pass

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def to_payload(self) -> dict:
        """The *inner* engine's payload (a pool is serving topology, not state).

        Byte-identical to saving the unwrapped engine, which is exactly what
        the differential harness compares; loading it back yields the inner
        engine — re-wrap with :meth:`from_engine` to restore a pool.
        """
        return self.inner.to_payload()


def _failure_count(entries: list) -> int:
    return sum(1 for entry in entries if isinstance(entry, QueryFailure))
