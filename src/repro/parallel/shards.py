"""Shard planning.

A *shard* is a contiguous ``[start, stop)`` slice of work items — block rows
of the pair enumeration during preprocessing, query rows of a
``suggest_many`` batch during serving.  Shards are planned up front in the
parent, submitted in order, and merged in the same order, so the assembled
result never depends on which worker finished first.  Workers keep no RNG
state, so a shard's result is a pure function of its rows and the inputs
the pool initializer pinned.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError

__all__ = ["plan_shards", "shard_size_for"]


def shard_size_for(n_items: int, n_workers: int) -> int:
    """Default rows per shard: one contiguous slice per worker (ceil division)."""
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    return max(1, -(-max(1, n_items) // n_workers))


def plan_shards(n_items: int, shard_size: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` bounds covering ``range(n_items)`` in order.

    >>> plan_shards(7, 3)
    [(0, 3), (3, 6), (6, 7)]
    >>> plan_shards(0, 3)
    []
    """
    if n_items < 0:
        raise ConfigurationError(f"n_items must be >= 0, got {n_items}")
    if shard_size < 1:
        raise ConfigurationError(f"shard_size must be >= 1, got {shard_size}")
    return [
        (start, min(n_items, start + shard_size))
        for start in range(0, n_items, shard_size)
    ]
