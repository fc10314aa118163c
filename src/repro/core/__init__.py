"""Core contribution: offline indexing of satisfactory regions and online query answering."""

from repro.core.approx import (
    ApproximatePreprocessor,
    MDApproxIndex,
    md_online,
    md_online_lookup,
)
from repro.core.engine import (
    ApproxConfig,
    ApproxEngine,
    EngineCapabilities,
    ExactConfig,
    ExactEngine,
    QueryEngine,
    TwoDConfig,
    TwoDEngine,
    available_engines,
    create_engine,
    engine_from_payload,
    get_engine,
    register_engine,
)
from repro.core.explain import (
    RepairExplanation,
    TopKDelta,
    explain_repair,
    format_explanation,
)
from repro.core.multi_dim import MDExactIndex, SatisfactoryRegion, SatRegions, md_baseline
from repro.core.result import SuggestionResult
from repro.core.sampling import SampleValidationReport, validate_index_on_dataset
from repro.core.session import DesignSession, ProposalRecord, SessionSummary
from repro.core.system import FairRankingDesigner
from repro.core.two_dim import AngularInterval, TwoDIndex, TwoDRaySweep

__all__ = [
    "QueryEngine",
    "EngineCapabilities",
    "TwoDConfig",
    "ExactConfig",
    "ApproxConfig",
    "TwoDEngine",
    "ExactEngine",
    "ApproxEngine",
    "register_engine",
    "get_engine",
    "available_engines",
    "create_engine",
    "engine_from_payload",
    "SuggestionResult",
    "AngularInterval",
    "TwoDIndex",
    "TwoDRaySweep",
    "SatisfactoryRegion",
    "MDExactIndex",
    "SatRegions",
    "md_baseline",
    "ApproximatePreprocessor",
    "MDApproxIndex",
    "md_online",
    "md_online_lookup",
    "SampleValidationReport",
    "validate_index_on_dataset",
    "DesignSession",
    "ProposalRecord",
    "SessionSummary",
    "RepairExplanation",
    "TopKDelta",
    "explain_repair",
    "format_explanation",
    "FairRankingDesigner",
]
