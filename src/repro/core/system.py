"""The user-facing facade: :class:`FairRankingDesigner`.

The paper describes a *query answering system*: the user hands it a dataset
and a fairness oracle, the system preprocesses offline, and then every
proposed weight vector is answered in interactive time with either "already
fair" or the closest satisfactory alternative.  ``FairRankingDesigner`` is a
thin facade over the engine registry of :mod:`repro.core.engine`: each
pipeline is a registered :class:`~repro.core.engine.QueryEngine` selected by a
typed configuration dataclass —

* :class:`~repro.core.engine.TwoDConfig` — the exact §3 pipeline (only for
  two scoring attributes);
* :class:`~repro.core.engine.ExactConfig` — ``SATREGIONS`` + ``MDBASELINE``
  (§4), exact but slower;
* :class:`~repro.core.engine.ApproxConfig` — the §5 grid pipeline with the
  Theorem 6 guarantee (the default for three or more attributes);
* :class:`~repro.resilience.fallback.FallbackConfig` — a resilient serving
  chain over the other pipelines (e.g. exact with approximate as the degraded
  tier), with per-query fault isolation; see ``docs/robustness.md``.

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
    ExactConfig,
    QueryEngine,
    TwoDConfig,
    create_engine,
    default_engine_config,
)
from repro.core.result import SuggestionResult
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.fairness.oracle import FairnessOracle
from repro.ranking.scoring import LinearScoringFunction

__all__ = ["FairRankingDesigner"]


class FairRankingDesigner:
    """End-to-end system for designing fair linear ranking schemes.

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
        self._engine: QueryEngine = create_engine(dataset, oracle, config)

    @classmethod
    def _from_engine(cls, engine: QueryEngine) -> "FairRankingDesigner":
        designer = cls.__new__(cls)
        designer._engine = engine
        return designer

    # ------------------------------------------------------------------ #
    # engine introspection
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> QueryEngine:
        """The underlying pipeline engine."""
        return self._engine

    @property
    def config(self):
        """The engine's typed configuration dataclass."""
        return self._engine.config

    @property
    def mode(self) -> str:
        """Registry name of the active engine (``"2d"``/``"exact"``/``"approximate"``)."""
        return self._engine.name

    def capabilities(self) -> EngineCapabilities:
        """Capabilities of the active engine."""
        return self._engine.capabilities()

    @property
    def dataset(self) -> Dataset:
        """The dataset being ranked (after :meth:`load`, the restored preprocessing dataset)."""
        return self._engine.dataset

    @property
    def oracle(self) -> FairnessOracle:
        """The fairness oracle."""
        return self._engine.oracle

    # ------------------------------------------------------------------ #
    # offline phase
    # ------------------------------------------------------------------ #
    def preprocess(self) -> "FairRankingDesigner":
        """Run the offline phase; returns ``self`` so calls can be chained."""
        self._engine.preprocess()
        return self

    @property
    def is_preprocessed(self) -> bool:
        """True once :meth:`preprocess` has run (or the designer was loaded)."""
        return self._engine.is_preprocessed

    @property
    def index(self):
        """The underlying offline index (engine specific)."""
        return self._engine.index

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta):
        """Apply a batch of item mutations to the live index.

        Forwards a :class:`~repro.core.maintenance.DatasetDelta` through the
        engine seam: the 2-D and exact engines maintain their index
        incrementally when the delta is small and supported, and every engine
        rebuilds past :data:`~repro.core.engine.STALENESS_THRESHOLD`.
        Returns the engine's :class:`~repro.core.maintenance.MaintenanceReport`.
        """
        return self._engine.apply_delta(delta)

    def refresh(self):
        """Re-run the oracle-dependent stages, e.g. after the oracle's criterion drifted."""
        return self._engine.refresh()

    # ------------------------------------------------------------------ #
    # online phase
    # ------------------------------------------------------------------ #
    def check(self, weights: Sequence[float] | LinearScoringFunction) -> bool:
        """Return True if the proposed weights already produce a fair ranking."""
        function = self._as_function(weights)
        return self.oracle.evaluate_function(function, self.dataset)

    def suggest(self, weights: Sequence[float] | LinearScoringFunction) -> SuggestionResult:
        """Answer a CLOSEST SATISFACTORY FUNCTION query for the proposed weights."""
        return self._engine.suggest(self._as_function(weights))

    def suggest_many(self, weights_matrix) -> list[SuggestionResult]:
        """Answer a batch of queries — one row of ``weights_matrix`` per query.

        Returns exactly what ``[self.suggest(w) for w in weights_matrix]``
        would, but through the engine's batched path: the 2-D engine
        classifies the whole batch with one binary search over the cached
        interval starts, and the approximate engine locates cells in
        vectorised chunks.
        """
        return self._engine.suggest_many(weights_matrix)

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
    def save(self, path, *, journaled: bool = False) -> None:
        """Write the preprocessed engine (config + index + sample) to a JSON file.

        The file embeds the preprocessing dataset — the sample, when
        ``sample_size`` was configured — so :meth:`load` answers queries
        bit-identically to this designer without redoing any preprocessing.
        With ``journaled=True`` the file records the pre-delta base snapshot
        plus the applied-delta journal instead (see
        :func:`repro.io.index_store.save_engine`); loading replays the
        journal through the engine seam.
        """
        from repro.io.index_store import save_engine

        save_engine(self._engine, path, journaled=journaled)

    @classmethod
    def load(cls, path, oracle: FairnessOracle) -> "FairRankingDesigner":
        """Rebuild a preprocessed designer from a :meth:`save` file.

        The fairness oracle is not serialised (it can close over arbitrary
        code), so the caller supplies it; the dataset restored from the file
        is the preprocessing dataset the index was built on.
        """
        from repro.io.index_store import load_engine

        return cls._from_engine(load_engine(path, oracle))
