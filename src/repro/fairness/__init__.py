"""Fairness layer: oracles (FM1, FM2, prefix, composites), graded measures, audits and baselines."""

from repro.fairness.batched import evaluate_functions_many, evaluate_many
from repro.fairness.auditing import (
    RankingAudit,
    audit_function,
    audit_ordering,
    compare_audits,
    format_audit,
)
from repro.fairness.baselines import constrained_topk, greedy_fair_rerank
from repro.fairness.composite import AndOracle, NotOracle, OrOracle
from repro.fairness.measures import (
    exposure_ratio,
    group_share_at_k,
    rkl_measure,
    rnd_measure,
    selection_rate_ratio,
)
from repro.fairness.incremental import (
    IncrementalOracle,
    PrefixGroupCounter,
    TopKGroupCounter,
    as_incremental,
)
from repro.fairness.multi_attribute import MultiAttributeOracle
from repro.fairness.oracle import CallableOracle, CountingOracle, FairnessOracle
from repro.fairness.pairwise import (
    PairwiseParityOracle,
    mean_rank_gap,
    median_rank_gap,
    pairwise_parity_gap,
    protected_above_rate,
    rank_biserial_correlation,
)
from repro.fairness.prefix import MinimumAtEveryPrefixOracle, PrefixProportionalOracle
from repro.fairness.proportional import ProportionalOracle, TopKGroupBoundOracle

__all__ = [
    "FairnessOracle",
    "CallableOracle",
    "CountingOracle",
    "IncrementalOracle",
    "as_incremental",
    "TopKGroupCounter",
    "PrefixGroupCounter",
    "evaluate_many",
    "evaluate_functions_many",
    "PairwiseParityOracle",
    "ProportionalOracle",
    "TopKGroupBoundOracle",
    "MultiAttributeOracle",
    "PrefixProportionalOracle",
    "MinimumAtEveryPrefixOracle",
    "AndOracle",
    "OrOracle",
    "NotOracle",
    "group_share_at_k",
    "selection_rate_ratio",
    "rnd_measure",
    "rkl_measure",
    "exposure_ratio",
    "protected_above_rate",
    "pairwise_parity_gap",
    "rank_biserial_correlation",
    "mean_rank_gap",
    "median_rank_gap",
    "RankingAudit",
    "audit_ordering",
    "audit_function",
    "compare_audits",
    "format_audit",
    "greedy_fair_rerank",
    "constrained_topk",
]
