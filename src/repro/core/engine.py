"""The unified query-engine API: pluggable pipelines behind one protocol.

The paper's system is an offline-preprocess / online-serve split: preprocess a
dataset against a fairness oracle once, then answer CLOSEST SATISFACTORY
FUNCTION queries in interactive time.  Each of the three pipelines implements
that split differently (§3 ray sweep in 2-D, §4 ``SATREGIONS`` exactly in any
dimension, §5 grid approximation), but a serving system should not care which
one is behind a query.  This module gives every pipeline the same shape:

* a typed configuration dataclass (:class:`TwoDConfig`, :class:`ExactConfig`,
  :class:`ApproxConfig`) instead of a grab-bag of keyword arguments;
* a :class:`QueryEngine` with ``preprocess`` / ``suggest`` / ``suggest_many``
  / ``capabilities`` and ``to_payload`` / ``from_payload`` persistence hooks;
* a registry keyed by engine name, so facades (and later shards / async
  servers) dispatch on data instead of ``isinstance`` checks;
* :class:`EngineWrapper`, the base of the engines that wrap another engine
  (pool, instrumented, fallback, chaos), which forwards the seam to it.

``suggest_many`` is the batch entry point for serving-shaped workloads: the
2-D engine classifies a whole weight matrix with one ``searchsorted`` over the
cached interval-start array, and the approximate engine answers the per-query
oracle pre-check through the batched oracle protocol
(:mod:`repro.fairness.batched`) and locates all unsatisfactory queries' cells
in vectorised chunks.  Both return exactly what a Python loop over ``suggest``
would — same objects, bit-identical numbers — so batching is a pure
throughput optimisation.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from repro.core.approx import ApproximatePreprocessor, MDApproxIndex, md_online
from repro.core.maintenance import DatasetDelta, MaintenanceReport
from repro.core.multi_dim import MDExactIndex, SatRegions, insert_hyperplanes, md_baseline
from repro.core.result import SuggestionResult
from repro.core.two_dim import TwoDIndex, TwoDRaySweep
from repro.data.dataset import Dataset
from repro.data.dominance import exchange_pairs_touching
from repro.exceptions import (
    ConfigurationError,
    NoSatisfactoryFunctionError,
    NotPreprocessedError,
)
from repro.fairness.batched import evaluate_functions_many
from repro.fairness.oracle import FairnessOracle
from repro.geometry.angles import to_angles_many, to_weights
from repro.geometry.dual import (
    exchange_angles_for_pairs,
    exchange_arrays_2d,
    hyperpolar_many,
)
from repro.geometry.partition import locate_cells
from repro.obs.trace import stage_span
from repro.ranking.scoring import LinearScoringFunction

__all__ = [
    "TwoDConfig",
    "ExactConfig",
    "ApproxConfig",
    "EngineCapabilities",
    "QueryEngine",
    "TwoDEngine",
    "ExactEngine",
    "ApproxEngine",
    "register_engine",
    "get_engine",
    "available_engines",
    "engine_name_for_config",
    "create_engine",
    "engine_from_payload",
    "default_engine_config",
    "as_weight_matrix",
    "EngineWrapper",
    "ENGINE_FORMAT",
    "STALENESS_THRESHOLD",
]

#: Schema identifier written into every serialised engine payload.
ENGINE_FORMAT = "repro.engine/v1"

#: Largest fraction of the dataset one delta may mutate and still be
#: maintained incrementally; ``apply_delta`` rebuilds above it.
STALENESS_THRESHOLD = 0.5


# --------------------------------------------------------------------------- #
# typed per-pipeline configurations
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TwoDConfig:
    """Configuration of the 2-D ray-sweep pipeline (§3).

    Attributes
    ----------
    sample_size:
        If given, preprocessing runs on a uniform sample of this size (§5.4).
    sample_seed:
        Seed of the preprocessing sample draw.
    preprocess_workers:
        Worker processes for the exchange enumeration (``1`` = serial; see
        :mod:`repro.parallel` — the sharded path is bit-identical).

    >>> TwoDConfig(sample_size=0)
    Traceback (most recent call last):
        ...
    repro.exceptions.ConfigurationError: sample_size must be >= 1, got 0
    """

    sample_size: int | None = None
    sample_seed: int = 0
    preprocess_workers: int = 1

    def __post_init__(self) -> None:
        _check_shared_fields(self)


@dataclass(frozen=True)
class ExactConfig:
    """Configuration of the exact ``SATREGIONS`` + ``MDBASELINE`` pipeline (§4).

    >>> ExactConfig(max_hyperplanes=-1)
    Traceback (most recent call last):
        ...
    repro.exceptions.ConfigurationError: max_hyperplanes must be >= 0, got -1
    """

    max_hyperplanes: int | None = None
    convex_layer_k: int | None = None
    use_arrangement_tree: bool = True
    sample_size: int | None = None
    sample_seed: int = 0
    preprocess_workers: int = 1

    def __post_init__(self) -> None:
        _check_shared_fields(self)


@dataclass(frozen=True)
class ApproxConfig:
    """Configuration of the approximate grid pipeline (§5).

    ``partition`` is the name of a built-in partition backend (``"uniform"``
    or ``"angle"``); power users who need a custom partition object can drive
    :class:`~repro.core.approx.ApproximatePreprocessor` directly.

    >>> ApproxConfig(n_cells=256).partition
    'uniform'
    >>> ApproxConfig(n_cells=0)
    Traceback (most recent call last):
        ...
    repro.exceptions.ConfigurationError: n_cells must be >= 1
    """

    n_cells: int = 1024
    partition: str = "uniform"
    max_hyperplanes: int | None = None
    convex_layer_k: int | None = None
    sample_size: int | None = None
    sample_seed: int = 0
    preprocess_workers: int = 1

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ConfigurationError("n_cells must be >= 1")
        if self.partition not in ("uniform", "angle"):
            raise ConfigurationError(
                f"partition must be 'uniform' or 'angle', got {self.partition!r}"
            )
        _check_shared_fields(self)


#: Smallest legal value of each integer field the configs share; ``None``
#: (unset) always passes.  The 2-D config has no hyperplane fields.
_SHARED_FIELD_MINIMUMS = {
    "sample_size": 1,
    "preprocess_workers": 1,
    "max_hyperplanes": 0,
    "convex_layer_k": 1,
}


def _check_shared_fields(config: EngineConfig) -> None:
    """Validate the fields the configs share, raising :class:`ConfigurationError`."""
    for name, minimum in _SHARED_FIELD_MINIMUMS.items():
        value = getattr(config, name, None)
        if value is not None and value < minimum:
            raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")


EngineConfig = TwoDConfig | ExactConfig | ApproxConfig


@dataclass(frozen=True)
class EngineCapabilities:
    """What a pipeline can do, for dispatch and serving decisions.

    Attributes
    ----------
    name:
        Registry name of the engine.
    exact:
        True when answers are exact (no Theorem 6 style approximation slack).
    min_attributes, max_attributes:
        Dataset dimensionalities the engine accepts (``None`` = unbounded).
    batched:
        True when ``suggest_many`` is natively batched rather than an
        internal loop over ``suggest``.
    persistable:
        True when ``to_payload`` / ``from_payload`` round-trip the engine.
    """

    name: str
    exact: bool
    min_attributes: int
    max_attributes: int | None
    batched: bool
    persistable: bool = True

    def supports_dimension(self, n_attributes: int) -> bool:
        """True if the engine can index a dataset with this many scoring attributes.

        >>> TwoDEngine.capabilities().supports_dimension(2)
        True
        >>> TwoDEngine.capabilities().supports_dimension(3)
        False
        >>> ExactEngine.capabilities().supports_dimension(7)
        True
        """
        if n_attributes < self.min_attributes:
            return False
        return self.max_attributes is None or n_attributes <= self.max_attributes


# --------------------------------------------------------------------------- #
# the engine protocol and registry
# --------------------------------------------------------------------------- #
@runtime_checkable
class QueryEngine(Protocol):
    """Protocol every registered pipeline engine implements."""

    dataset: Dataset
    oracle: FairnessOracle

    def preprocess(
        self, dataset: Dataset | None = None, oracle: FairnessOracle | None = None
    ) -> "QueryEngine":
        """Run the offline phase; returns the engine for chaining."""

    def suggest(self, function: LinearScoringFunction) -> SuggestionResult:
        """Answer one CLOSEST SATISFACTORY FUNCTION query."""

    def suggest_many(self, weights_matrix: np.ndarray) -> list[SuggestionResult]:
        """Answer a batch of queries, identically to looping :meth:`suggest`."""

    def apply_delta(self, delta: DatasetDelta) -> MaintenanceReport:
        """Apply one batch of item mutations, maintaining the index in place."""

    def refresh(self) -> MaintenanceReport:
        """Re-run the oracle-dependent stages, e.g. after the oracle's criterion drifted."""

    def capabilities(self) -> EngineCapabilities:
        """Static description of what the engine supports."""

    def to_payload(self) -> dict[str, Any]:
        """Serialise the preprocessed engine to a JSON-compatible payload."""

    @classmethod
    def from_payload(cls, payload: dict[str, Any], oracle: FairnessOracle) -> "QueryEngine":
        """Rebuild a preprocessed engine from :meth:`to_payload` output."""


_ENGINE_REGISTRY: dict[str, type] = {}
_CONFIG_TO_NAME: dict[type, str] = {}

_PLUGINS_LOADED: bool = False


def _load_builtin_plugins() -> None:
    """Import engine modules that live outside this one (lazily, once).

    The resilience layer registers its :class:`FallbackEngine` through the
    ordinary registry but imports this module to do so; deferring its import
    to the first registry *lookup* keeps the modules acyclic while making
    ``"fallback"`` a first-class registered engine.
    """
    global _PLUGINS_LOADED
    if _PLUGINS_LOADED:
        return
    _PLUGINS_LOADED = True
    import repro.resilience.fallback  # noqa: F401  (registers on import)
    import repro.obs.instrument  # noqa: F401  (registers on import)
    import repro.parallel.pool  # noqa: F401  (registers on import)


def register_engine(name: str, config_type: type) -> Callable[[type], type]:
    """Class decorator registering an engine under ``name`` with its config type."""

    def decorate(cls: type) -> type:
        if name in _ENGINE_REGISTRY:
            raise ConfigurationError(f"engine {name!r} is already registered")
        cls.name = name
        cls.config_type = config_type
        _ENGINE_REGISTRY[name] = cls
        _CONFIG_TO_NAME[config_type] = name
        return cls

    return decorate


def available_engines() -> tuple[str, ...]:
    """Names of all registered engines (in registration order, which depends
    on which plugin modules were imported first — sort for a stable view).

    >>> sorted(available_engines())
    ['2d', 'approximate', 'exact', 'fallback', 'instrumented', 'pool']
    """
    _load_builtin_plugins()
    return tuple(_ENGINE_REGISTRY)


def get_engine(name: str) -> type:
    """Look up an engine class by registry name.

    >>> get_engine("2d").__name__
    'TwoDEngine'
    """
    _load_builtin_plugins()
    try:
        return _ENGINE_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; registered engines: {sorted(_ENGINE_REGISTRY)}"
        ) from None


def engine_name_for_config(config: EngineConfig) -> str:
    """Map a typed config to the engine name it configures.

    >>> engine_name_for_config(ApproxConfig())
    'approximate'
    """
    _load_builtin_plugins()
    try:
        return _CONFIG_TO_NAME[type(config)]
    except KeyError:
        raise ConfigurationError(
            f"{type(config).__name__} is not a registered engine configuration"
        ) from None


def create_engine(
    dataset: Dataset, oracle: FairnessOracle, config: EngineConfig
) -> "QueryEngine":
    """Instantiate the engine a typed config selects, validating the dataset."""
    return get_engine(engine_name_for_config(config))(dataset, oracle, config)


def engine_from_payload(payload: dict[str, Any], oracle: FairnessOracle) -> "QueryEngine":
    """Rebuild a preprocessed engine from a serialised payload, dispatching on its name."""
    if not isinstance(payload, dict) or payload.get("format") != ENGINE_FORMAT:
        raise ConfigurationError(
            f"payload is not a serialised engine (expected format {ENGINE_FORMAT!r})"
        )
    return get_engine(str(payload.get("engine"))).from_payload(payload, oracle)


def default_engine_config(dataset: Dataset) -> EngineConfig:
    """The config used when none is given: the 2-D sweep for two attributes, else the grid."""
    return TwoDConfig() if dataset.n_attributes == 2 else ApproxConfig()


def as_weight_matrix(
    weights_matrix: np.ndarray | Sequence[Sequence[float]], n_attributes: int
) -> np.ndarray:
    """The ``suggest_many`` input as a float ``(q, n_attributes)`` matrix.

    >>> as_weight_matrix([[1, 2]], 2).dtype
    dtype('float64')
    >>> as_weight_matrix([1.0, 2.0], 2)
    Traceback (most recent call last):
        ...
    repro.exceptions.ConfigurationError: suggest_many expects a (q, 2) weight matrix, got shape (2,)
    """
    matrix = np.asarray(weights_matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != n_attributes:
        raise ConfigurationError(
            f"suggest_many expects a (q, {n_attributes}) weight matrix, "
            f"got shape {matrix.shape}"
        )
    return matrix


# --------------------------------------------------------------------------- #
# shared engine machinery
# --------------------------------------------------------------------------- #
class _EngineBase:
    """Common preprocess / batching / persistence scaffolding of the engines."""

    name: str
    config_type: type

    def __init__(
        self,
        dataset: Dataset,
        oracle: FairnessOracle,
        config: EngineConfig | None = None,
    ) -> None:
        config = config if config is not None else self.config_type()
        if not isinstance(config, self.config_type):
            raise ConfigurationError(
                f"{type(self).__name__} expects a {self.config_type.__name__}, "
                f"got {type(config).__name__}"
            )
        capabilities = self.capabilities()
        if not capabilities.supports_dimension(dataset.n_attributes):
            bound = (
                f"exactly {capabilities.min_attributes}"
                if capabilities.max_attributes == capabilities.min_attributes
                else f"at least {capabilities.min_attributes}"
            )
            raise ConfigurationError(
                f"engine {capabilities.name!r} requires {bound} scoring attributes; "
                f"the dataset has {dataset.n_attributes}"
            )
        self.dataset = dataset
        self.oracle = oracle
        self.config = config
        self._index: Any = None
        self._preprocessing_dataset: Dataset | None = None
        self._journal: list[DatasetDelta] = []

    # -- offline phase ------------------------------------------------- #
    def preprocess(
        self, dataset: Dataset | None = None, oracle: FairnessOracle | None = None
    ) -> "_EngineBase":
        """Run the offline phase (optionally rebinding dataset/oracle first).

        The dataset, oracle and index are committed together once the index
        is built, and a successful build starts an empty :attr:`journal`; a
        build that raises leaves the engine, journal included, as it was.
        """
        self._rebuild(
            self.dataset if dataset is None else dataset,
            self.oracle if oracle is None else oracle,
        )
        self._journal = []
        return self

    def _rebuild(self, dataset: Dataset, oracle: FairnessOracle) -> None:
        """Build the index for ``dataset`` and commit it with the dataset and oracle."""
        working = dataset
        sample_size = self.config.sample_size
        if sample_size is not None and sample_size < working.n_items:
            working = working.sample(sample_size, seed=self.config.sample_seed)
        index = self._build_index(working, oracle)
        self.dataset, self.oracle = dataset, oracle
        self._preprocessing_dataset, self._index = working, index

    def _build_index(self, working: Dataset, oracle: FairnessOracle) -> Any:
        """Build the index; engines cache its geometry only once it is built."""
        raise NotImplementedError

    # -- maintenance (the build-and-maintain lifecycle) ------------------ #
    def apply_delta(self, delta: DatasetDelta) -> MaintenanceReport:
        """Apply one batch of item mutations, maintaining the index in place.

        The maintained engine is *bit-identical* — same answers, same
        oracle-call budget, same persisted payload bytes — to a from-scratch
        :meth:`preprocess` on ``delta.apply(self.dataset)``.  Small deltas on
        eligible engines run the incremental geometry paths; a delta mutating
        more than :data:`STALENESS_THRESHOLD` of the dataset (or an engine
        without its geometry caches, e.g. one rebuilt from a payload) falls
        back to a full rebuild.  Applied deltas are appended to
        :attr:`journal`.  A delta that raises is neither applied nor recorded:
        the engine keeps its pre-delta state, so retrying is safe.
        """
        if not isinstance(delta, DatasetDelta):
            raise ConfigurationError(
                f"apply_delta expects a DatasetDelta, got {type(delta).__name__}"
            )
        if self._index is None:
            raise NotPreprocessedError("preprocess() before applying dataset deltas")
        if delta.is_empty:
            return MaintenanceReport(engine=self.name, strategy="noop")
        fraction = delta.staleness_fraction(self.dataset.n_items)
        mutated = delta.apply(self.dataset)
        with stage_span(
            "maintenance.apply_delta", engine=self.name, n_changes=delta.n_changes
        ) as span:
            if fraction > STALENESS_THRESHOLD or not self._supports_incremental(delta):
                strategy = "rebuild"
                self._rebuild(mutated, self.oracle)
                details: dict[str, Any] = {"n_items": mutated.n_items}
            else:
                strategy = "incremental"
                index, details = self._apply_delta_incremental(delta, mutated)
                self.dataset = self._preprocessing_dataset = mutated
                self._index = index
            if span is not None:
                span.set("strategy", strategy)
        self._journal.append(delta)
        return MaintenanceReport(
            engine=self.name,
            strategy=strategy,
            n_inserted=delta.n_inserted,
            n_deleted=delta.n_deleted,
            n_updated=delta.n_updated,
            staleness_fraction=fraction,
            details=details,
        )

    def refresh(self) -> MaintenanceReport:
        """Re-run the oracle-dependent stages, e.g. after the oracle's criterion drifted.

        The refresh hook the freshness monitors drive
        (:func:`repro.core.monitoring.refresh_if_stale`).  Oracle verdicts are
        re-evaluated in full on the preprocessing dataset.  The 2-D engine
        reuses its cached exchange arrays and the exact engine its cached
        arrangement tree; the approximate engine, and any engine without its
        caches (e.g. one loaded from a payload), rebuilds from scratch.
        """
        if self._index is None:
            raise NotPreprocessedError("preprocess() before refreshing")
        with stage_span("maintenance.refresh", engine=self.name):
            self._refresh_index()
        return MaintenanceReport(engine=self.name, strategy="refresh")

    def _supports_incremental(self, delta: DatasetDelta) -> bool:
        """True when this engine can maintain its index incrementally for ``delta``."""
        return False

    def _apply_delta_incremental(
        self, delta: DatasetDelta, mutated: Dataset
    ) -> tuple[Any, dict[str, Any]]:
        """Return the index for ``mutated`` and the report details; ``apply_delta`` commits."""
        raise NotImplementedError  # only reachable when _supports_incremental lies

    def _refresh_index(self) -> None:
        """Default refresh: rebuild the index on the preprocessing dataset."""
        self._index = self._build_index(self.preprocessing_dataset, self.oracle)

    @property
    def journal(self) -> tuple[DatasetDelta, ...]:
        """Deltas applied since the last :meth:`preprocess`, oldest first.

        Kept in memory only: a saved engine is a snapshot of its current index.
        """
        return tuple(self._journal)

    @property
    def is_preprocessed(self) -> bool:
        """True once :meth:`preprocess` has run (or the engine was loaded)."""
        return self._index is not None

    @property
    def index(self) -> Any:
        """The underlying offline index (engine specific)."""
        if self._index is None:
            raise NotPreprocessedError("call preprocess() first")
        return self._index

    @property
    def preprocessing_dataset(self) -> Dataset:
        """The dataset the index was built on (the sample when sampling was used)."""
        if self._preprocessing_dataset is None:
            raise NotPreprocessedError("call preprocess() first")
        return self._preprocessing_dataset

    # -- online phase --------------------------------------------------- #
    def suggest(self, function: LinearScoringFunction) -> SuggestionResult:
        raise NotImplementedError

    def suggest_many(
        self, weights_matrix: np.ndarray | Sequence[Sequence[float]]
    ) -> list[SuggestionResult]:
        """Fallback batch answering: a loop over :meth:`suggest`.

        Engines with a native batched path override this; the loop is the
        reference semantics every override must reproduce exactly.
        """
        matrix = as_weight_matrix(weights_matrix, self.dataset.n_attributes)
        return [
            self.suggest(LinearScoringFunction(tuple(row))) for row in matrix.tolist()
        ]

    # -- persistence ----------------------------------------------------- #
    def to_payload(self) -> dict[str, Any]:
        """Serialise config + index + preprocessing dataset to a JSON-compatible dict.

        The preprocessing dataset (the sample, when sampling was used) is
        embedded so a loaded engine answers bit-identically to the engine that
        was saved — the exact pipeline re-orders it per query, and the
        approximate pipeline re-checks queries against it.
        """
        from repro.io.dataset_json import dataset_to_dict

        return {
            "format": ENGINE_FORMAT,
            "engine": self.name,
            "config": asdict(self.config),
            "index": self._index_to_dict(),
            "preprocessing_dataset": dataset_to_dict(self.preprocessing_dataset),
        }

    def _index_to_dict(self) -> dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def from_payload(cls, payload: dict[str, Any], oracle: FairnessOracle) -> "_EngineBase":
        """Rebuild a preprocessed engine from :meth:`to_payload` output."""
        from repro.io.dataset_json import dataset_from_dict

        if not isinstance(payload, dict) or payload.get("format") != ENGINE_FORMAT:
            raise ConfigurationError(
                f"payload is not a serialised engine (expected format {ENGINE_FORMAT!r})"
            )
        if payload.get("engine") != cls.name:
            raise ConfigurationError(
                f"payload holds a {payload.get('engine')!r} engine, expected {cls.name!r}"
            )
        config_payload = payload.get("config", {})
        known = {field.name for field in fields(cls.config_type)}
        unknown = sorted(set(config_payload) - known)
        if unknown:
            warnings.warn(
                f"ignoring unknown {cls.config_type.__name__} key(s) in the engine "
                f"payload: {', '.join(unknown)} (the payload may come from another "
                "version of this library)",
                UserWarning,
                stacklevel=2,
            )
        config = cls.config_type(
            **{key: value for key, value in config_payload.items() if key in known}
        )
        dataset = dataset_from_dict(payload["preprocessing_dataset"])
        engine = cls(dataset, oracle, config)
        engine._preprocessing_dataset = dataset
        engine._index = engine._index_from_dict(payload["index"], dataset, oracle)
        return engine

    def _index_from_dict(
        self, payload: dict[str, Any], dataset: Dataset, oracle: FairnessOracle
    ) -> Any:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# the three pipeline engines
# --------------------------------------------------------------------------- #
@register_engine("2d", TwoDConfig)
class TwoDEngine(_EngineBase):
    """The §3 pipeline: ``2DRAYSWEEP`` offline, ``2DONLINE`` online."""

    def _build_index(self, working: Dataset, oracle: FairnessOracle) -> TwoDIndex:
        builder = exchange_arrays_2d
        if self.config.preprocess_workers > 1:
            from repro.parallel.preprocess import make_parallel_exchange_builder

            builder = make_parallel_exchange_builder(self.config.preprocess_workers)
        return self._sweep(working, oracle, builder)

    def _sweep(self, dataset: Dataset, oracle: FairnessOracle, exchange_builder) -> TwoDIndex:
        """Run the ray sweep, caching the sorted exchange arrays it consumed.

        The arrays are the oracle-free geometry apply_delta() maintains.
        """
        sweep = TwoDRaySweep(dataset, oracle, exchange_builder=exchange_builder)
        index = sweep.run()
        self._exchanges = sweep.exchanges
        return index

    def _supports_incremental(self, delta: DatasetDelta) -> bool:
        return (
            self.config.sample_size is None
            and getattr(self, "_exchanges", None) is not None
        )

    def _apply_delta_incremental(
        self, delta: DatasetDelta, mutated: Dataset
    ) -> tuple[TwoDIndex, dict[str, Any]]:
        """Re-sweep only the exchange pairs touching changed items.

        Pairs between untouched items keep their exchange angles verbatim
        (eligibility and angle are functions of the two score rows alone) and
        are remapped to post-delta indices through an old→new index array;
        pairs touching an updated, deleted or inserted item are dropped and
        re-derived with the same vectorised kernels the full build uses.  The
        sweep's one lexsort merges both, so the exchange arrays — and
        therefore the re-run sweep — are bit-identical to a from-scratch
        build on the mutated dataset.
        """
        n_before = self.dataset.n_items
        with stage_span("maintenance.exchange_remap") as span:
            new_index = np.full(n_before, -1, dtype=np.intp)
            mapping = delta.index_map(n_before)
            new_index[list(mapping)] = list(mapping.values())
            touched = delta.touched_new_indices(n_before, mutated.n_items)
            stale = np.zeros(mutated.n_items + 1, dtype=bool)
            stale[list(touched)] = True
            stale[-1] = True  # slot -1 catches the new index of a deleted item
            angles, first, second = self._exchanges
            first, second = new_index[first], new_index[second]
            keep = ~(stale[first] | stale[second])
            fresh = exchange_angles_for_pairs(
                mutated.scores, exchange_pairs_touching(mutated.scores, touched)
            )
            merged = tuple(
                np.concatenate((retained[keep], added))
                for retained, added in zip((angles, first, second), fresh)
            )
            n_retained, n_fresh = int(np.count_nonzero(keep)), int(fresh[0].size)
            if span is not None:
                span.set("n_retained", n_retained)
                span.set("n_fresh", n_fresh)
        index = self._sweep(mutated, self.oracle, lambda dataset: merged)
        return index, {"n_retained_exchanges": n_retained, "n_fresh_exchanges": n_fresh}

    def _refresh_index(self) -> None:
        exchanges = getattr(self, "_exchanges", None)
        if exchanges is None:
            super()._refresh_index()
            return
        self._index = self._sweep(
            self.preprocessing_dataset, self.oracle, lambda dataset: exchanges
        )

    def suggest(self, function: LinearScoringFunction) -> SuggestionResult:
        return self.index.query(function)

    def suggest_many(
        self, weights_matrix: np.ndarray | Sequence[Sequence[float]]
    ) -> list[SuggestionResult]:
        """Batched ``2DONLINE``: one ``searchsorted`` classifies the whole batch."""
        return self.index.query_many(
            as_weight_matrix(weights_matrix, self.dataset.n_attributes)
        )

    @classmethod
    def capabilities(cls) -> EngineCapabilities:
        return EngineCapabilities(
            name="2d", exact=True, min_attributes=2, max_attributes=2, batched=True
        )

    def _index_to_dict(self) -> dict[str, Any]:
        from repro.io.index_store import two_d_index_to_dict

        return two_d_index_to_dict(self.index)

    def _index_from_dict(
        self, payload: dict[str, Any], dataset: Dataset, oracle: FairnessOracle
    ) -> TwoDIndex:
        from repro.io.index_store import two_d_index_from_dict

        return two_d_index_from_dict(payload)


@register_engine("exact", ExactConfig)
class ExactEngine(_EngineBase):
    """The §4 pipeline: ``SATREGIONS`` offline, ``MDBASELINE`` online."""

    def _build_index(self, working: Dataset, oracle: FairnessOracle) -> MDExactIndex:
        builder = SatRegions(
            working,
            oracle,
            use_arrangement_tree=self.config.use_arrangement_tree,
            max_hyperplanes=self.config.max_hyperplanes,
            convex_layer_k=self.config.convex_layer_k,
            preprocess_workers=self.config.preprocess_workers,
        )
        index = builder.run()
        # Cache the canonical hyperplane list and the arrangement tree: an
        # insert-only delta extends the tree instead of rebuilding it.
        self._exact_hyperplanes = builder.hyperplanes_
        self._exact_tree = builder.tree_
        return index

    def _supports_incremental(self, delta: DatasetDelta) -> bool:
        # The arrangement tree is cached across *insertions* only: deletes and
        # updates would have to unsplit interior nodes, so they rebuild.
        return (
            delta.insert_only
            and self.config.sample_size is None
            and self.config.max_hyperplanes is None
            and self.config.convex_layer_k is None
            and self.config.use_arrangement_tree
            and getattr(self, "_exact_tree", None) is not None
            and getattr(self, "_exact_hyperplanes", None) is not None
        )

    def _apply_delta_incremental(
        self, delta: DatasetDelta, mutated: Dataset
    ) -> tuple[MDExactIndex, dict[str, Any]]:
        """Extend the cached arrangement tree with the inserted items' hyperplanes.

        ``SatRegions`` inserts hyperplanes in the canonical ``(j, i)`` label
        order, so every pair touching an appended item — its larger index is
        always ``>= n_before`` — sorts after every existing pair: the fresh
        hyperplanes extend the cached tree exactly as a from-scratch build on
        the mutated dataset would insert them.  Only the (oracle-dependent)
        region evaluation re-runs in full.  The tree is extended in place, so
        it leaves the cache until the new index is built: after a failure the
        next delta rebuilds instead of reusing a half-extended tree.
        """
        touched = delta.touched_new_indices(self.dataset.n_items, mutated.n_items)
        pairs = exchange_pairs_touching(mutated.scores, touched)
        fresh = hyperpolar_many(mutated.scores, pairs) if pairs.shape[0] else []
        fresh.sort(key=lambda plane: (plane.label[1], plane.label[0]))
        tree, self._exact_tree = self._exact_tree, None
        insert_hyperplanes(tree, fresh)
        merged = list(self._exact_hyperplanes) + fresh
        index = SatRegions(
            mutated,
            self.oracle,
            use_arrangement_tree=True,
            preprocess_workers=self.config.preprocess_workers,
        ).evaluate_tree(tree, n_hyperplanes=len(merged))
        self._exact_hyperplanes, self._exact_tree = merged, tree
        return index, {
            "n_cached_hyperplanes": len(merged) - len(fresh),
            "n_fresh_hyperplanes": len(fresh),
        }

    def _refresh_index(self) -> None:
        tree = getattr(self, "_exact_tree", None)
        hyperplanes = getattr(self, "_exact_hyperplanes", None)
        if tree is None or hyperplanes is None:
            super()._refresh_index()
            return
        self._index = SatRegions(
            self.preprocessing_dataset,
            self.oracle,
            use_arrangement_tree=True,
            preprocess_workers=self.config.preprocess_workers,
        ).evaluate_tree(tree, n_hyperplanes=len(hyperplanes))

    def suggest(self, function: LinearScoringFunction) -> SuggestionResult:
        return md_baseline(self.preprocessing_dataset, self.oracle, self.index, function)

    # suggest_many inherits the reference loop: each MDBASELINE answer solves
    # one constrained minimisation per satisfactory region, so there is no
    # shared work to batch — the per-query solves dominate end to end.

    @classmethod
    def capabilities(cls) -> EngineCapabilities:
        return EngineCapabilities(
            name="exact", exact=True, min_attributes=3, max_attributes=None, batched=False
        )

    def _index_to_dict(self) -> dict[str, Any]:
        from repro.io.index_store import exact_index_to_dict

        return exact_index_to_dict(self.index)

    def _index_from_dict(
        self, payload: dict[str, Any], dataset: Dataset, oracle: FairnessOracle
    ) -> MDExactIndex:
        from repro.io.index_store import exact_index_from_dict

        return exact_index_from_dict(payload)


@register_engine("approximate", ApproxConfig)
class ApproxEngine(_EngineBase):
    """The §5 grid pipeline: cell marking/colouring offline, ``MDONLINE`` online."""

    #: Queries whose cells are located per vectorised batch in ``suggest_many``.
    lookup_chunk_size = 1024

    def _build_index(self, working: Dataset, oracle: FairnessOracle) -> MDApproxIndex:
        # No geometry is cached: MARKCELL's oracle probes dominate a build and
        # re-run after any delta, so apply_delta() and refresh() rebuild.
        return ApproximatePreprocessor(
            working,
            oracle,
            n_cells=self.config.n_cells,
            partition=self.config.partition,
            max_hyperplanes=self.config.max_hyperplanes,
            convex_layer_k=self.config.convex_layer_k,
            preprocess_workers=self.config.preprocess_workers,
        ).run()

    def suggest(self, function: LinearScoringFunction) -> SuggestionResult:
        return md_online(self.index, function)

    def suggest_many(
        self, weights_matrix: np.ndarray | Sequence[Sequence[float]]
    ) -> list[SuggestionResult]:
        """Batched ``MDONLINE``: batched oracle pre-check, chunked cell lookups.

        Line 1 of Algorithm 11 (is the query itself satisfactory?) goes to the
        oracle as one batch: when the oracle supports the batched protocol
        (:func:`repro.fairness.batched.as_batched`), the whole weight matrix
        is ordered with one stacked matmul + argsort
        (:func:`repro.ranking.scoring.order_many`) and judged with one
        ``is_satisfactory_many`` — bit-identical verdicts to the per-query
        calls ``md_online`` makes, which remain the fallback for black-box
        oracles.  The index part — locating each remaining query's cell — is
        done in vectorised chunks over the partition, with the
        nearest-assigned fallback answered from the index's cached assigned
        stack.  Results are bit-identical to looping :meth:`suggest`.
        """
        matrix = as_weight_matrix(weights_matrix, self.dataset.n_attributes)
        index = self.index
        if not index.assigned_angles:
            raise NotPreprocessedError(
                "run ApproximatePreprocessor before issuing online queries"
            )
        # One vectorised validation pass covers the whole batch, so function
        # construction can use the trusted constructor; rows that would fail
        # validation go through the normal constructor and raise exactly what
        # the scalar path raises.
        trusted = bool(
            np.all(np.isfinite(matrix))
            and not np.any(matrix < 0)
            and np.all(np.any(matrix > 0, axis=1))
        )
        make_function = (
            LinearScoringFunction._from_trusted if trusted else LinearScoringFunction
        )
        functions = [make_function(tuple(row)) for row in matrix.tolist()]
        satisfactory = evaluate_functions_many(
            index.oracle, index.dataset, functions, weight_matrix=matrix
        )
        results: list[SuggestionResult | None] = [None] * matrix.shape[0]
        for position in np.flatnonzero(satisfactory).tolist():
            function = functions[position]
            results[position] = SuggestionResult(function, True, function, 0.0)
        pending = np.flatnonzero(~satisfactory)
        if pending.size == 0:
            return results  # type: ignore[return-value]
        if not index.has_satisfactory_function:
            raise NoSatisfactoryFunctionError(
                "no scoring function satisfies the fairness constraint on this dataset"
            )
        # Vectorised Algorithm 11 tail, bit-identical step for step to
        # md_online_lookup: angles via the batched to_angles kernel, radii via
        # the same dot+sqrt the scalar norm computes, cell location in chunks,
        # and distances from stacked per-row dot products finished with the
        # scalar math.acos (np.arccos rounds differently on ~9% of inputs).
        pending_weights = matrix[pending]
        angle_matrix = to_angles_many(pending_weights)
        radii = np.sqrt(
            np.matmul(pending_weights[:, None, :], pending_weights[:, :, None])[:, 0, 0]
        )
        located = np.empty(pending.size, dtype=int)
        chunk = self.lookup_chunk_size
        for start in range(0, pending.size, chunk):
            located[start : start + chunk] = locate_cells(
                index.partition, angle_matrix[start : start + chunk]
            )
        # Map each located cell to its row in the index's assigned stack; the
        # cells the colouring could not reach take the nearest-assigned
        # fallback, exactly as md_online_lookup does.
        stack_cells, stack_weights, stack_norms = index._assigned_stack()
        stack_position_of_cell = np.full(index.n_cells, -1, dtype=int)
        stack_position_of_cell[stack_cells] = np.arange(stack_cells.size)
        stack_positions = stack_position_of_cell[located]
        for row in np.flatnonzero(stack_positions < 0).tolist():
            stack_positions[row] = index._nearest_assigned_position(angle_matrix[row])
        assigned_rows = stack_weights[stack_positions]
        # Scalar reference: angular_distance(to_weights(query), to_weights(assigned)).
        query_units = np.stack([to_weights(row) for row in angle_matrix])
        query_norms = np.sqrt(
            np.matmul(query_units[:, None, :], query_units[:, :, None])[:, 0, 0]
        )
        dots = np.matmul(query_units[:, None, :], assigned_rows[:, :, None])[:, 0, 0]
        cosines = np.clip(dots / (query_norms * stack_norms[stack_positions]), -1.0, 1.0)
        # to_weights(assigned, radius) is radius * to_weights(assigned): the
        # stacked unit rows scale to the suggestion weights elementwise.
        suggestion_rows = (assigned_rows * radii[:, None]).tolist()
        acos = math.acos
        for row, position in enumerate(pending.tolist()):
            suggestion = make_function(tuple(suggestion_rows[row]))
            results[position] = SuggestionResult(
                functions[position], False, suggestion, acos(cosines[row])
            )
        return results  # type: ignore[return-value]

    @classmethod
    def capabilities(cls) -> EngineCapabilities:
        return EngineCapabilities(
            name="approximate", exact=False, min_attributes=3, max_attributes=None, batched=True
        )

    def _index_to_dict(self) -> dict[str, Any]:
        from repro.io.index_store import approx_index_to_dict

        return approx_index_to_dict(self.index)

    def _index_from_dict(
        self, payload: dict[str, Any], dataset: Dataset, oracle: FairnessOracle
    ) -> MDApproxIndex:
        from repro.io.index_store import approx_index_from_dict

        return approx_index_from_dict(payload, oracle=oracle, dataset=dataset)


# --------------------------------------------------------------------------- #
# the serving-layer wrapper base
# --------------------------------------------------------------------------- #
class EngineWrapper:
    """Base of the engines that wrap another engine, held as ``self.inner``.

    Forwards the seam (``preprocess`` / ``suggest`` / ``suggest_many`` /
    ``apply_delta`` / ``refresh``) and the read-only engine state (``dataset``,
    ``index``, ``is_preprocessed``, ``preprocessing_dataset``, ``journal``) to
    ``self.inner`` unchanged, so a wrapper overrides only what it changes.
    ``oracle`` is not forwarded: each wrapper keeps its own.  For the
    registered wrappers it also supplies ``capabilities()`` and the
    not-persistable ``to_payload`` / ``from_payload``.
    """

    name: str
    inner: Any

    @property
    def dataset(self) -> Dataset:
        return self.inner.dataset

    @property
    def index(self) -> Any:
        return self.inner.index

    @property
    def is_preprocessed(self) -> bool:
        return self.inner.is_preprocessed

    @property
    def preprocessing_dataset(self) -> Dataset:
        return self.inner.preprocessing_dataset

    @property
    def journal(self) -> tuple[DatasetDelta, ...]:
        return self.inner.journal

    def preprocess(
        self, dataset: Dataset | None = None, oracle: FairnessOracle | None = None
    ) -> "EngineWrapper":
        self.inner.preprocess(dataset, oracle)
        return self

    def suggest(self, function: LinearScoringFunction) -> SuggestionResult:
        return self.inner.suggest(function)

    def suggest_many(
        self, weights_matrix: np.ndarray | Sequence[Sequence[float]]
    ) -> list[Any]:
        return self.inner.suggest_many(weights_matrix)

    def apply_delta(self, delta: DatasetDelta) -> MaintenanceReport:
        return self.inner.apply_delta(delta)

    def refresh(self) -> MaintenanceReport:
        return self.inner.refresh()

    @classmethod
    def capabilities(cls) -> EngineCapabilities:
        return EngineCapabilities(
            name=cls.name,
            exact=False,
            min_attributes=2,
            max_attributes=None,
            batched=True,
            persistable=False,
        )

    def to_payload(self) -> dict[str, Any]:
        raise self._not_persistable()

    @classmethod
    def from_payload(cls, payload: dict[str, Any], oracle: FairnessOracle) -> "EngineWrapper":
        raise cls._not_persistable()

    @classmethod
    def _not_persistable(cls) -> ConfigurationError:
        return ConfigurationError(
            f"{cls.__name__} is a serving-layer wrapper and is not persistable as "
            "one payload; save the wrapped engine(s) and re-wrap them after "
            "loading with from_engine() / from_engines()"
        )
