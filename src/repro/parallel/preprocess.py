"""Sharded parallel preprocessing, bit-identical to the serial path.

The serial preprocessing entry points already enumerate exchange pairs in
bounded-memory row blocks (:func:`repro.data.dominance.iter_exchange_pair_chunks`)
and construct hyperplanes per chunk
(:func:`repro.geometry.dual.hyperplanes_for_dataset`).  This module fans the
very same blocks out over a ``ProcessPoolExecutor``:

* every worker runs :func:`repro.data.dominance.exchange_pairs_for_block` —
  the exact kernel the serial generator runs — over the exact block bounds
  the serial chunking would use;
* per-pair construction (``hyperpolar_many``) is independent per pair, so
  constructing a whole block in a worker and taking a prefix in the parent
  equals constructing the prefix serially;
* the parent merges results **in chunk-submission order**, never in
  completion order, so the assembled list is bit-identical to the serial one
  regardless of worker count or scheduling;
* ``max_hyperplanes`` is honoured across shards: the parent truncates the
  merged list at the cap, then cancels every not-yet-started chunk.

Workers call :func:`repro.obs.trace.reset_stage_recorder` first thing, so
stage spans degrade to no-ops in children and no worker ever observes
inherited recorder state.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable

import numpy as np

from repro.data.dataset import Dataset
from repro.data.dominance import default_row_chunk_size, exchange_pairs_for_block
from repro.exceptions import ConfigurationError, DatasetError, GeometryError
from repro.geometry.dual import (
    ExchangeArrays,
    exchange_angles_for_pairs,
    exchange_arrays_2d,
    hyperpolar_many,
    hyperplanes_for_dataset,
)
from repro.geometry.hyperplane import Hyperplane
from repro.obs.trace import reset_stage_recorder, stage_span
from repro.parallel.shards import plan_shards

__all__ = [
    "make_parallel_exchange_builder",
    "parallel_hyperplanes_for_dataset",
]

# Worker-process globals, populated once per worker by the initializers below
# (pickled through ``initargs``; with a fork start method they are inherited
# copy-on-write, so large score matrices are not re-pickled per chunk).
_SCORES: np.ndarray | None = None
_RESTRICTED: np.ndarray | None = None
_INDICES: np.ndarray | None = None


def _require_workers(n_workers: int) -> int:
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    return int(n_workers)


# ---------------------------------------------------------------------- #
# d >= 3: sharded hyperplane construction
# ---------------------------------------------------------------------- #
def _init_hyperplane_worker(
    scores: np.ndarray, restricted: np.ndarray, indices: np.ndarray
) -> None:
    """Per-worker setup: detach inherited obs state, pin the shared inputs."""
    global _SCORES, _RESTRICTED, _INDICES
    reset_stage_recorder()
    _SCORES = scores
    _RESTRICTED = restricted
    _INDICES = indices


def _hyperplane_chunk_task(start: int, stop: int) -> list[Hyperplane]:
    """Construct every hyperplane of one pair-enumeration block, uncapped.

    Runs in a worker process.  The parent applies the ``max_hyperplanes``
    prefix truncation while merging — construction is independent per pair,
    so block-then-prefix equals prefix-then-block.
    """
    position_pairs = exchange_pairs_for_block(_RESTRICTED, start, stop)
    if position_pairs.shape[0] == 0:
        return []
    return hyperpolar_many(_SCORES, _INDICES[position_pairs])


def parallel_hyperplanes_for_dataset(
    dataset: Dataset,
    item_indices: np.ndarray | None = None,
    *,
    n_workers: int = 1,
    pair_chunk_size: int | None = None,
    max_hyperplanes: int | None = None,
) -> list[Hyperplane]:
    """Sharded-parallel :func:`repro.geometry.dual.hyperplanes_for_dataset`.

    Returns a list bit-identical to the serial entry point for every
    combination of ``n_workers``, ``pair_chunk_size`` and ``max_hyperplanes``
    (see the module docstring for the argument).  ``n_workers=1`` simply
    delegates to the serial function.

    Extra parameters over the serial signature
    ------------------------------------------
    n_workers:
        Worker processes to fan the pair-enumeration blocks over.
    """
    _require_workers(n_workers)
    if n_workers == 1:
        return hyperplanes_for_dataset(
            dataset,
            item_indices,
            pair_chunk_size=pair_chunk_size,
            max_hyperplanes=max_hyperplanes,
        )
    if dataset.n_attributes < 3:
        raise GeometryError("hyperplanes_for_dataset requires d >= 3")
    if max_hyperplanes is not None and max_hyperplanes < 0:
        raise GeometryError("max_hyperplanes must be non-negative")
    if max_hyperplanes == 0:
        return []
    if item_indices is None:
        indices = np.arange(dataset.n_items)
    else:
        indices = np.asarray(item_indices, dtype=int)
    scores = dataset.scores
    restricted = scores[indices]
    m, d = restricted.shape
    row_chunk_size = (
        pair_chunk_size if pair_chunk_size is not None else default_row_chunk_size(m, d)
    )
    if row_chunk_size < 1:
        raise DatasetError("row_chunk_size must be >= 1")
    bounds = plan_shards(m, row_chunk_size)
    if not bounds:
        return []

    hyperplanes: list[Hyperplane] = []
    with ProcessPoolExecutor(
        max_workers=min(n_workers, len(bounds)),
        initializer=_init_hyperplane_worker,
        initargs=(scores, restricted, indices),
    ) as executor:
        futures = [
            executor.submit(_hyperplane_chunk_task, start, stop) for start, stop in bounds
        ]
        # Merge strictly in chunk-submission order: completion order never
        # influences the output, only how long the parent blocks per future.
        for chunk_index, future in enumerate(futures):
            with stage_span(
                "preprocess.parallel_chunk", chunk=chunk_index, n_workers=n_workers
            ) as span:
                chunk_planes = future.result()
                if max_hyperplanes is not None:
                    chunk_planes = chunk_planes[: max_hyperplanes - len(hyperplanes)]
                if span is not None:
                    span.set("n_hyperplanes", len(chunk_planes))
            hyperplanes.extend(chunk_planes)
            if max_hyperplanes is not None and len(hyperplanes) >= max_hyperplanes:
                for outstanding in futures[chunk_index + 1 :]:
                    outstanding.cancel()
                break
    return hyperplanes


# ---------------------------------------------------------------------- #
# d == 2: sharded exchange-angle enumeration
# ---------------------------------------------------------------------- #
def _init_angle_worker(scores: np.ndarray) -> None:
    """Per-worker setup for the 2-D angle path."""
    global _SCORES
    reset_stage_recorder()
    _SCORES = scores


def _angle_chunk_task(start: int, stop: int) -> ExchangeArrays:
    """Enumerate one block's exchange arrays; runs in a worker process."""
    # Same Eq. 2 kernel as exchange_arrays_2d, applied block-wise.
    return exchange_angles_for_pairs(_SCORES, exchange_pairs_for_block(_SCORES, start, stop))


def _parallel_exchange_arrays_2d(
    dataset: Dataset, n_workers: int, row_chunk_size: int | None
) -> ExchangeArrays:
    """Sharded-parallel :func:`repro.geometry.dual.exchange_arrays_2d`.

    Concatenating block arrays in chunk order reproduces the serial arrays
    exactly (same pairs, same row-major order, same ``arctan2`` bits);
    ``n_workers=1`` delegates to the serial function.
    """
    _require_workers(n_workers)
    if n_workers == 1:
        return exchange_arrays_2d(dataset)
    if dataset.n_attributes != 2:
        raise GeometryError("sharded exchange_arrays_2d requires a 2-attribute dataset")
    scores = dataset.scores
    n = dataset.n_items
    if row_chunk_size is None:
        row_chunk_size = default_row_chunk_size(n, 2)
    if row_chunk_size < 1:
        raise DatasetError("row_chunk_size must be >= 1")
    bounds = plan_shards(n, row_chunk_size)
    if not bounds:
        return exchange_angles_for_pairs(scores, np.empty((0, 2), dtype=np.intp))

    chunks: list[ExchangeArrays] = []
    with ProcessPoolExecutor(
        max_workers=min(n_workers, len(bounds)),
        initializer=_init_angle_worker,
        initargs=(scores,),
    ) as executor:
        futures = [executor.submit(_angle_chunk_task, start, stop) for start, stop in bounds]
        for chunk_index, future in enumerate(futures):
            with stage_span(
                "preprocess.parallel_chunk", chunk=chunk_index, n_workers=n_workers
            ) as span:
                chunk = future.result()
                if span is not None:
                    span.set("n_exchanges", int(chunk[0].size))
            chunks.append(chunk)
    return tuple(np.concatenate(column) for column in zip(*chunks))


def make_parallel_exchange_builder(
    n_workers: int, *, row_chunk_size: int | None = None
) -> Callable[[Dataset], ExchangeArrays]:
    """Exchange-builder closure for :class:`repro.core.two_dim.TwoDRaySweep`.

    The ray sweep accepts any ``dataset -> (angles, i, j)`` callable as its
    ``exchange_builder`` seam; this one enumerates the exchange arrays over a
    fixed number of worker processes, so ``TwoDEngine`` can inject sharded
    enumeration when ``preprocess_workers > 1``.
    """
    _require_workers(n_workers)

    def build(dataset: Dataset) -> ExchangeArrays:
        return _parallel_exchange_arrays_2d(dataset, n_workers, row_chunk_size)

    return build
