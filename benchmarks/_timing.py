"""Looped vs batched answering of one weight matrix, for the batch benchmarks.

``bench_batch_query.py`` and ``bench_oracle_batch.py`` time a preprocessed
designer answering the same queries through a ``suggest`` loop and through one
``suggest_many`` batch with :func:`time_batched_queries`, and check that the
two routes return identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["BatchQueryTiming", "time_batched_queries"]


@dataclass(frozen=True)
class BatchQueryTiming:
    """Looped vs batched online answering of one weight-matrix workload.

    ``identical`` records whether the engine's ``suggest_many`` reproduced the
    reference loop result-for-result — the invariant the batched paths are
    required to keep.
    """

    n_items: int
    n_queries: int
    engine: str
    loop_seconds: float
    batched_seconds: float
    identical: bool

    @property
    def speedup(self) -> float:
        """How much faster the batched path answered the workload."""
        if self.batched_seconds <= 0.0:
            return float("inf")
        return self.loop_seconds / self.batched_seconds


def time_batched_queries(designer, weights_matrix, repeats: int = 3) -> BatchQueryTiming:
    """Time a preprocessed designer answering a weight matrix both ways.

    Runs ``suggest`` in a Python loop and ``suggest_many`` as one batch,
    ``repeats`` times each (best-of to suppress scheduler noise), and verifies
    the two produce identical results.  Takes a preprocessed
    :class:`~repro.core.system.FairRankingDesigner` (any engine behind it).
    """
    matrix = [list(row) for row in weights_matrix]
    loop_seconds = float("inf")
    looped = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        looped = [designer.suggest(row) for row in matrix]
        loop_seconds = min(loop_seconds, time.perf_counter() - started)
    batched_seconds = float("inf")
    batched = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        batched = designer.suggest_many(matrix)
        batched_seconds = min(batched_seconds, time.perf_counter() - started)
    return BatchQueryTiming(
        n_items=designer.dataset.n_items,
        n_queries=len(matrix),
        engine=designer.mode if hasattr(designer, "mode") else designer.name,
        loop_seconds=loop_seconds,
        batched_seconds=batched_seconds,
        identical=(batched == looped),
    )
