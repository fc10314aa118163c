"""Persistence layer: JSON round-trips for datasets and preprocessed engines.

The paper's workflow separates an expensive offline phase (indexing the
satisfactory regions of weight space) from an interactive online phase
(answering queries against the index).  In a deployed system those phases run
at different times — often on different machines — so the index has to be
storable.  :func:`save_engine` / :func:`load_engine` persist a preprocessed
engine (config, index and preprocessing dataset) in one checksummed file; the
``*_index_to_dict`` / ``*_index_from_dict`` pairs serialise each index kind
produced by :mod:`repro.core` inside that payload, and the dataset helpers
round-trip a :class:`~repro.data.dataset.Dataset` on its own.
"""

from repro.io.dataset_json import (
    dataset_from_dict,
    dataset_to_dict,
    load_dataset_json,
    save_dataset_json,
)
from repro.io.index_store import (
    approx_index_from_dict,
    approx_index_to_dict,
    exact_index_from_dict,
    exact_index_to_dict,
    load_engine,
    save_engine,
    two_d_index_from_dict,
    two_d_index_to_dict,
)

__all__ = [
    "dataset_to_dict",
    "dataset_from_dict",
    "save_dataset_json",
    "load_dataset_json",
    "two_d_index_to_dict",
    "two_d_index_from_dict",
    "exact_index_to_dict",
    "exact_index_from_dict",
    "approx_index_to_dict",
    "approx_index_from_dict",
    "save_engine",
    "load_engine",
]
