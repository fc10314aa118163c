"""Dataset substrate: containers, dominance, convex layers and synthetic data.

This package provides everything the paper's algorithms need from the data
side — the :class:`~repro.data.dataset.Dataset` container with normalisation
and sampling, Pareto-dominance tests used to skip useless ordering exchanges,
the convex-layer ("onion") pruning of §8, and synthetic stand-ins for the
COMPAS and DOT datasets used in the paper's evaluation.
"""

from repro.data.dataset import Dataset, normalize_minmax
from repro.data.loaders import LoadReport, load_compas_csv, load_dot_csv, load_numeric_csv
from repro.data.dominance import (
    dominance_matrix,
    dominates,
    exchange_pair_indices,
    iter_exchange_pair_chunks,
    non_dominated_pairs,
    skyline_indices,
)
from repro.data.layers import convex_layers, topk_candidate_indices, upper_hull_indices
from repro.data.synthetic import (
    COMPAS_SCORING_ATTRIBUTES,
    DOT_CARRIER_SHARES,
    DOT_SCORING_ATTRIBUTES,
    make_admissions_like,
    make_compas_like,
    make_correlated_dataset,
    make_dot_like,
    make_uniform_dataset,
)

__all__ = [
    "Dataset",
    "normalize_minmax",
    "LoadReport",
    "load_numeric_csv",
    "load_compas_csv",
    "load_dot_csv",
    "dominates",
    "dominance_matrix",
    "skyline_indices",
    "non_dominated_pairs",
    "exchange_pair_indices",
    "iter_exchange_pair_chunks",
    "convex_layers",
    "upper_hull_indices",
    "topk_candidate_indices",
    "COMPAS_SCORING_ATTRIBUTES",
    "DOT_SCORING_ATTRIBUTES",
    "DOT_CARRIER_SHARES",
    "make_compas_like",
    "make_dot_like",
    "make_admissions_like",
    "make_uniform_dataset",
    "make_correlated_dataset",
]
