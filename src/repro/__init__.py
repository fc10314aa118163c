"""repro — a reproduction of "Designing Fair Ranking Schemes" (Asudeh et al., SIGMOD 2019).

The library helps a user design a *fair* linear scoring function: given a
dataset, a fairness oracle over orderings, and a proposed weight vector, it
either confirms the proposal is fair or suggests the closest weight vector
(by angular distance) that is.  Offline it indexes the *satisfactory regions*
of weight space using ordering exchanges and hyperplane arrangements; online
it answers queries in sub-millisecond time.

Typical use::

    from repro import ApproxConfig, FairRankingDesigner, ProportionalOracle
    from repro.data import make_compas_like

    dataset = make_compas_like(n=1000).project(
        ["c_days_from_compas", "juv_other_count", "start"])
    oracle = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.10)
    designer = FairRankingDesigner(
        dataset, oracle, ApproxConfig(n_cells=4096)).preprocess()
    result = designer.suggest([0.5, 0.3, 0.2])
    batch = designer.suggest_many([[0.5, 0.3, 0.2], [0.2, 0.4, 0.4]])

Preprocessed designers persist with ``designer.save(path)`` and come back with
``FairRankingDesigner.load(path, oracle)``, answering bit-identically without
re-preprocessing (see :mod:`repro.core.engine` for the engine protocol).
Persisted files carry a checksum; a corrupted file raises a typed
:class:`IndexIntegrityError` with a rebuild hint.  For serving against flaky
oracles or with graceful degradation across pipelines, see
:mod:`repro.resilience` (``ResilientOracle``, ``FallbackConfig``) and
``docs/robustness.md``.  For tracing, metrics and replayable workload
recording around any engine, see :mod:`repro.obs` (``InstrumentedConfig``,
``MetricsRegistry``, ``TraceRecorder``, ``WorkloadRecorder``) and
``docs/observability.md``.
"""

from repro.core import (
    ApproxConfig,
    ApproximatePreprocessor,
    DesignSession,
    ExactConfig,
    FairRankingDesigner,
    MDApproxIndex,
    MDExactIndex,
    QueryEngine,
    SatRegions,
    SuggestionResult,
    TwoDConfig,
    TwoDIndex,
    TwoDRaySweep,
    available_engines,
    get_engine,
)
from repro.data import Dataset
from repro.exceptions import (
    ConfigurationError,
    DatasetError,
    FallbackExhaustedError,
    GeometryError,
    IndexIntegrityError,
    NoSatisfactoryFunctionError,
    NotPreprocessedError,
    OracleError,
    OracleTimeoutError,
    OracleUnavailableError,
    ReproError,
    ScoringFunctionError,
    TransientOracleError,
)
from repro.fairness import (
    CallableOracle,
    FairnessOracle,
    MultiAttributeOracle,
    PairwiseParityOracle,
    PrefixProportionalOracle,
    ProportionalOracle,
    TopKGroupBoundOracle,
    as_batched,
    as_incremental,
)
from repro.io import load_engine, save_engine
from repro.obs import (
    InstrumentedConfig,
    InstrumentedEngine,
    MetricsRegistry,
    TraceRecorder,
    WorkloadRecorder,
)
from repro.ranking import LinearScoringFunction
from repro.resilience import (
    CircuitBreaker,
    FallbackConfig,
    FallbackEngine,
    ResilientOracle,
    RetryPolicy,
)

__version__ = "1.3.0"

__all__ = [
    "__version__",
    "Dataset",
    "LinearScoringFunction",
    "FairnessOracle",
    "CallableOracle",
    "ProportionalOracle",
    "TopKGroupBoundOracle",
    "MultiAttributeOracle",
    "PairwiseParityOracle",
    "PrefixProportionalOracle",
    "as_batched",
    "as_incremental",
    "FairRankingDesigner",
    "DesignSession",
    "SuggestionResult",
    "QueryEngine",
    "TwoDConfig",
    "ExactConfig",
    "ApproxConfig",
    "available_engines",
    "get_engine",
    "save_engine",
    "load_engine",
    "TwoDRaySweep",
    "TwoDIndex",
    "SatRegions",
    "MDExactIndex",
    "ApproximatePreprocessor",
    "MDApproxIndex",
    "ResilientOracle",
    "RetryPolicy",
    "CircuitBreaker",
    "FallbackConfig",
    "FallbackEngine",
    "InstrumentedConfig",
    "InstrumentedEngine",
    "MetricsRegistry",
    "TraceRecorder",
    "WorkloadRecorder",
    "ReproError",
    "DatasetError",
    "ScoringFunctionError",
    "GeometryError",
    "OracleError",
    "TransientOracleError",
    "OracleTimeoutError",
    "OracleUnavailableError",
    "FallbackExhaustedError",
    "IndexIntegrityError",
    "ConfigurationError",
    "NoSatisfactoryFunctionError",
    "NotPreprocessedError",
]
