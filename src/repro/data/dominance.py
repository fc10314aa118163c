"""Pareto dominance utilities.

The paper (footnote 4, §3.2) skips ordering exchanges between pairs of items
where one *dominates* the other: if ``t[i] >= t'[i]`` on every scoring
attribute and strictly greater on at least one, then no non-negative weight
vector can rank ``t'`` above ``t``, so the pair never swaps and contributes no
exchange hyperplane.  These helpers are used by both the 2-D ray sweep and the
multi-dimensional arrangement construction, and also power the skyline /
convex-layer optimisations in :mod:`repro.data.layers`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DatasetError
from repro.obs.trace import stage_span

__all__ = [
    "dominates",
    "dominance_matrix",
    "skyline_indices",
    "non_dominated_pairs",
    "exchange_pair_indices",
    "exchange_pairs_for_block",
    "exchange_pairs_touching",
    "default_row_chunk_size",
    "iter_exchange_pair_chunks",
]

#: Peak size (in float64 elements) of the broadcast difference block each
#: chunk of :func:`iter_exchange_pair_chunks` may allocate (~64 MB).
_CHUNK_BUDGET_ELEMENTS = 8_000_000


def dominates(first: np.ndarray, second: np.ndarray) -> bool:
    """Return ``True`` if ``first`` Pareto-dominates ``second``.

    Dominance is component-wise ``>=`` with at least one strict ``>`` (paper
    footnote 4).  Equal vectors do not dominate each other.
    """
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.shape != second.shape:
        raise DatasetError("dominance requires vectors of equal dimension")
    return bool(np.all(first >= second) and np.any(first > second))


def dominance_matrix(scores: np.ndarray) -> np.ndarray:
    """Return a boolean matrix ``M`` with ``M[i, j]`` true iff item i dominates item j.

    Vectorised over all pairs; O(n^2 d) time, O(n^2) memory.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise DatasetError("dominance_matrix expects an (n, d) matrix")
    greater_equal = np.all(scores[:, None, :] >= scores[None, :, :], axis=2)
    strictly_greater = np.any(scores[:, None, :] > scores[None, :, :], axis=2)
    return greater_equal & strictly_greater


def skyline_indices(scores: np.ndarray) -> np.ndarray:
    """Return indices of the skyline (Pareto-optimal items, the first convex layer's superset).

    An item is on the skyline iff no other item dominates it.
    """
    matrix = dominance_matrix(scores)
    dominated = np.any(matrix, axis=0)
    return np.flatnonzero(~dominated)


def non_dominated_pairs(scores: np.ndarray) -> list[tuple[int, int]]:
    """Return all index pairs ``(i, j)`` with ``i < j`` where neither item dominates the other.

    These are exactly the pairs that produce an ordering-exchange hyperplane.
    Vectorised: the dominance matrix is masked and the surviving upper-triangle
    entries are enumerated with :func:`numpy.nonzero` (row-major, so the output
    order matches the historical nested-loop enumeration).
    """
    matrix = dominance_matrix(scores)
    mutual = ~matrix & ~matrix.T
    i_indices, j_indices = np.nonzero(np.triu(mutual, k=1))
    return list(zip(i_indices.tolist(), j_indices.tolist()))


def _exchange_pairs(scores: np.ndarray, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The exchange rule: pairs ``(i, j)`` with ``i < j``, ``i`` in ``rows``, ``j`` in ``columns``.

    A pair exchanges iff neither row dominates the other (§3.2, footnote 4).
    Scores are finite, so that is "some difference is positive and some is
    negative"; equal rows have neither and never exchange.  ``rows`` and
    ``columns`` are ascending index arrays; pairs come in row-major order.
    Every enumerator below runs exactly this function.
    """
    difference = scores[rows, None, :] - scores[None, columns, :]
    mixed = np.any(difference > 0.0, axis=2) & np.any(difference < 0.0, axis=2)
    first, second = np.nonzero(mixed & (rows[:, None] < columns[None, :]))
    return np.column_stack((rows[first], columns[second]))


def exchange_pair_indices(scores: np.ndarray) -> np.ndarray:
    """Return the ``(m, 2)`` array of row pairs that produce an ordering exchange.

    A pair exchanges iff neither row dominates the other, so some score
    difference is positive and some negative (§3.2, footnote 4).  The
    concatenation of :func:`iter_exchange_pair_chunks` (the 2-D exchange
    build reads it; the d ≥ 3 builders consume the chunks directly), so
    memory stays bounded.  Pairs are returned with ``i < j`` in row-major
    (nested-loop) order.
    """
    return np.concatenate(
        [np.empty((0, 2), dtype=int), *iter_exchange_pair_chunks(scores)]
    )


def default_row_chunk_size(n: int, d: int) -> int:
    """Rows per enumeration block that keep the broadcast slice near 64 MB.

    This is the default block size of :func:`iter_exchange_pair_chunks`,
    exposed so the sharded preprocessing driver (:mod:`repro.parallel`) can
    plan shard boundaries that coincide exactly with the serial chunking.
    """
    return max(1, _CHUNK_BUDGET_ELEMENTS // max(1, n * d))


def exchange_pairs_for_block(scores: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Exchange pairs ``(i, j)`` with ``start <= i < stop`` and ``j > i``.

    The block-row kernel of :func:`iter_exchange_pair_chunks`, shared with the
    parallel preprocessing workers (:mod:`repro.parallel.preprocess`) so the
    sharded path is bit-identical to the serial generator by construction —
    both run exactly this function over the same ``[start, stop)`` bounds.
    ``scores`` must be a float ``(n, d)`` matrix.
    """
    n = scores.shape[0]
    if not (0 <= start <= stop <= n):
        raise DatasetError(
            f"block bounds [{start}, {stop}) fall outside the {n}-row score matrix"
        )
    return _exchange_pairs(scores, np.arange(start, stop), np.arange(start + 1, n))


def exchange_pairs_touching(scores: np.ndarray, touched) -> np.ndarray:
    """Exchange pairs ``(i, j)`` with ``i < j`` and at least one endpoint in ``touched``.

    The incremental-maintenance counterpart of :func:`exchange_pair_indices`:
    after a dataset delta, only the pairs touching a changed item need their
    eligibility re-derived.  The exchange rule runs twice — the touched rows
    against the indices above them, then the indices below them against the
    touched rows — so each decision is the one the full enumeration makes.

    Parameters
    ----------
    scores:
        ``(n, d)`` score matrix (post-delta).
    touched:
        Iterable of row indices whose scores changed (inserted or updated
        items); pairs between untouched rows are not enumerated.

    Returns
    -------
    numpy.ndarray
        ``(m, 2)`` array of eligible pairs, deduplicated, with ``i < j`` in
        row-major order.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise DatasetError("exchange_pairs_touching expects an (n, d) matrix")
    n = scores.shape[0]
    rows = np.asarray(sorted(set(int(index) for index in touched)), dtype=int)
    if rows.size == 0:
        return np.empty((0, 2), dtype=int)
    if rows[0] < 0 or rows[-1] >= n:
        raise DatasetError("touched indices fall outside the score matrix")
    every = np.arange(n)
    pairs = np.concatenate(
        (
            _exchange_pairs(scores, rows, every[rows[0] + 1 :]),
            _exchange_pairs(scores, every[: rows[-1]], rows),
        )
    )
    # Pairs between two touched rows come twice; i * n + j sorts row-major.
    keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
    return np.column_stack((keys // n, keys % n))


def iter_exchange_pair_chunks(scores: np.ndarray, row_chunk_size: int | None = None):
    """Yield the exchange pairs of ``scores`` in bounded-memory row blocks.

    The whole ``(n, n, d)`` difference tensor would be 2.4 GB of float64 at
    ``n = 10⁴, d = 3``; each step here broadcasts only a
    ``(row_chunk_size, n, d)`` slice through :func:`exchange_pairs_for_block`,
    so peak memory is ``O(chunk · n · d)`` no matter how large ``n`` grows.
    Concatenated, the chunks are :func:`exchange_pair_indices` (row-major,
    ``i < j``).

    Parameters
    ----------
    scores:
        ``(n, d)`` score matrix.
    row_chunk_size:
        Rows per block; defaults to whatever keeps the broadcast block near
        64 MB (at least 1).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise DatasetError("iter_exchange_pair_chunks expects an (n, d) matrix")
    n, d = scores.shape
    if row_chunk_size is None:
        row_chunk_size = default_row_chunk_size(n, d)
    if row_chunk_size < 1:
        raise DatasetError("row_chunk_size must be >= 1")
    for start in range(0, n, row_chunk_size):
        stop = min(n, start + row_chunk_size)
        # The span closes before the yield so consumer time is not billed
        # to the chunk; it is a no-op unless an instrumented engine is
        # preprocessing (repro.obs.trace.activated).
        with stage_span("preprocess.pair_chunk", start=start, stop=stop) as span:
            pairs = exchange_pairs_for_block(scores, start, stop)
            if span is not None:
                span.set("n_pairs", int(pairs.shape[0]))
        yield pairs
