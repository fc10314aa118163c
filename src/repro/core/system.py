"""The user-facing facade: :class:`FairRankingDesigner`.

The paper describes a *query answering system*: the user hands it a dataset
and a fairness oracle, the system preprocesses offline, and then every
proposed weight vector is answered in interactive time with either "already
fair" or the closest satisfactory alternative.  ``FairRankingDesigner`` is an
:class:`~repro.core.engine.EngineWrapper` around one engine of the registry
of :mod:`repro.core.engine`: the base forwards the engine seam, and each
pipeline is a registered :class:`~repro.core.engine.QueryEngine` selected by a
typed configuration dataclass —

* :class:`~repro.core.engine.TwoDConfig` — the exact §3 pipeline (only for
  two scoring attributes);
* :class:`~repro.core.engine.ExactConfig` — ``SATREGIONS`` + ``MDBASELINE``
  (§4), exact but slower;
* :class:`~repro.core.engine.ApproxConfig` — the §5 grid pipeline with the
  Theorem 6 guarantee (the default for three or more attributes).

The serving wrappers are registered engines too:
:class:`~repro.obs.instrument.InstrumentedConfig` adds spans, metrics and
workload recording, and :class:`~repro.parallel.pool.PoolConfig` shards
``suggest_many`` over worker processes with per-query fault isolation (see
``docs/robustness.md``).

With no config, the designer auto-picks the 2-D pipeline for two attributes
and the approximate pipeline otherwise
(:func:`~repro.core.engine.default_engine_config`).  Batch queries go
through :meth:`FairRankingDesigner.suggest_many`, and a preprocessed designer
round-trips through :meth:`FairRankingDesigner.save` /
:meth:`FairRankingDesigner.load` without redoing any preprocessing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.engine import (
    ApproxConfig,
    EngineCapabilities,
    EngineWrapper,
    ExactConfig,
    QueryEngine,
    TwoDConfig,
    create_engine,
    default_engine_config,
    engine_from_payload,
)
from repro.core.result import SuggestionResult
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.fairness.oracle import FairnessOracle
from repro.ranking.scoring import LinearScoringFunction

__all__ = ["FairRankingDesigner"]


class FairRankingDesigner(EngineWrapper):
    """End-to-end system for designing fair linear ranking schemes.

    The designer holds its engine as ``inner``, and the
    :class:`~repro.core.engine.EngineWrapper` base forwards the engine's state
    and seam to it; the designer adds the default config, :meth:`check`, a
    :meth:`suggest` that accepts plain weight lists, and persistence.

    Parameters
    ----------
    dataset:
        The dataset to be ranked.
    oracle:
        The fairness oracle that decides which orderings are acceptable.
    config:
        A typed engine configuration (:class:`~repro.core.engine.TwoDConfig`,
        :class:`~repro.core.engine.ExactConfig` or
        :class:`~repro.core.engine.ApproxConfig`).  Omitted, the designer
        auto-picks the 2-D pipeline for two scoring attributes and the
        approximate pipeline otherwise, with default settings.

    Examples
    --------
    >>> from repro.core.engine import ApproxConfig
    >>> from repro.data import make_compas_like
    >>> from repro.fairness import ProportionalOracle
    >>> dataset = make_compas_like(n=200, seed=1).project(
    ...     ["c_days_from_compas", "juv_other_count", "start"])
    >>> oracle = ProportionalOracle.at_most_share_plus_slack(
    ...     dataset, "race", "African-American", k=0.3, slack=0.10)
    >>> designer = FairRankingDesigner(
    ...     dataset, oracle, ApproxConfig(n_cells=64, max_hyperplanes=24))
    >>> _ = designer.preprocess()
    >>> result = designer.suggest([0.4, 0.3, 0.3])
    >>> result.function.dimension
    3
    """

    def __init__(
        self,
        dataset: Dataset,
        oracle: FairnessOracle,
        config: TwoDConfig | ExactConfig | ApproxConfig | None = None,
    ) -> None:
        if config is None:
            config = default_engine_config(dataset)
        self.inner: QueryEngine = create_engine(dataset, oracle, config)

    @classmethod
    def _from_engine(cls, engine: QueryEngine) -> "FairRankingDesigner":
        designer = cls.__new__(cls)
        designer.inner = engine
        return designer

    # ------------------------------------------------------------------ #
    # engine introspection
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> QueryEngine:
        """The underlying pipeline engine."""
        return self.inner

    @property
    def config(self):
        """The engine's typed configuration dataclass."""
        return self.inner.config

    @property
    def mode(self) -> str:
        """Registry name of the active engine (``"2d"``/``"exact"``/``"approximate"``)."""
        return self.inner.name

    def capabilities(self) -> EngineCapabilities:
        """Capabilities of the active engine."""
        return self.inner.capabilities()

    @property
    def oracle(self) -> FairnessOracle:
        """The fairness oracle."""
        return self.inner.oracle

    # ------------------------------------------------------------------ #
    # online phase
    # ------------------------------------------------------------------ #
    def check(self, weights: Sequence[float] | LinearScoringFunction) -> bool:
        """Return True if the proposed weights already produce a fair ranking."""
        function = self._as_function(weights)
        return self.oracle.evaluate_function(function, self.dataset)

    def suggest(self, weights: Sequence[float] | LinearScoringFunction) -> SuggestionResult:
        """Answer a CLOSEST SATISFACTORY FUNCTION query for the proposed weights."""
        return self.inner.suggest(self._as_function(weights))

    def _as_function(
        self, weights: Sequence[float] | LinearScoringFunction
    ) -> LinearScoringFunction:
        if isinstance(weights, LinearScoringFunction):
            function = weights
        else:
            function = LinearScoringFunction(tuple(np.asarray(weights, dtype=float)))
        if function.dimension != self.dataset.n_attributes:
            raise ConfigurationError(
                f"the query has {function.dimension} weights but the dataset has "
                f"{self.dataset.n_attributes} scoring attributes"
            )
        return function

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def to_payload(self) -> dict:
        """The engine's payload: a designer persists as the engine it wraps."""
        return self.inner.to_payload()

    @classmethod
    def from_payload(cls, payload: dict, oracle: FairnessOracle) -> "FairRankingDesigner":
        """A designer around the engine :meth:`to_payload` output rebuilds."""
        return cls._from_engine(engine_from_payload(payload, oracle))

    def save(self, path) -> None:
        """Write the preprocessed engine (config + index + sample) to a JSON file.

        The file embeds the preprocessing dataset — the sample, when
        ``sample_size`` was configured — so :meth:`load` answers queries
        bit-identically to this designer without redoing any preprocessing.
        """
        from repro.io.index_store import save_engine

        save_engine(self.inner, path)

    @classmethod
    def load(cls, path, oracle: FairnessOracle) -> "FairRankingDesigner":
        """Rebuild a preprocessed designer from a :meth:`save` file.

        The fairness oracle is not serialised (it can close over arbitrary
        code), so the caller supplies it; the dataset restored from the file
        is the preprocessing dataset the index was built on.
        """
        from repro.io.index_store import load_engine

        return cls._from_engine(load_engine(path, oracle))
