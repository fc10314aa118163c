"""Ordering exchanges: dual transform and the ``HYPERPOLAR`` construction.

An *ordering exchange* of a pair of items ``t_i``, ``t_j`` is the set of
scoring functions that give both items the same score (§3.1).  For linear
functions this is the locus :math:`\\sum_k (t_i[k] - t_j[k])\\,w_k = 0` — a
hyperplane through the origin in weight space (Eq. 5).  Pairs in which one
item dominates the other never exchange (the hyperplane misses the first
orthant), so they are skipped.

Three views of the same object are provided here:

* in 2-D the exchange is a single ray, identified by its angle with the x-axis
  (Eq. 2) — used by the ray-sweep algorithm of §3;
* in weight space the exchange is described by its normal vector (Eq. 5) — the
  exact ground truth used by tests;
* in the angle coordinate system the exchange is represented, following the
  paper's ``HYPERPOLAR`` (Algorithm 3), by the hyperplane
  :math:`\\sum_k h[k]\\,θ_k = 1` through ``d-1`` points of the exchange locus.
  (The true locus is mildly curved in angle coordinates; fitting a hyperplane
  through ``d-1`` of its first-orthant points is precisely what Algorithm 3
  does, and the oracle evaluation at region representatives keeps the final
  labels correct.)

Batch construction is vectorised end to end: pair eligibility is decided by
the broadcast dominance kernels of :mod:`repro.data.dominance` (enumerated in
bounded-memory row blocks by :func:`~repro.data.dominance.iter_exchange_pair_chunks`
so the O(n²) broadcast never materialises the full difference tensor), all
2-D exchange angles come from a single vectorised ``arctan2``, and all d ≥ 3
exchange hyperplanes come from :func:`hyperpolar_many` — one batched SVD over
the ``(m, 1, d)`` stack of exchange normals for the nullspace bases, one
batched ``np.linalg.solve`` over the ``(m, d-1, d-1)`` angle matrices —
instead of m per-pair nullspace/solve calls.  Each setting has one production
builder: the 2-D exchanges stay ``(angles, i, j)`` arrays
(:func:`exchange_arrays_2d`) all the way into the ray sweep, and
:func:`hyperplanes_for_dataset` builds every d ≥ 3 hyperplane.  The scalar
per-pair references the tests compare them against live in
``tests/reference/``; they share the same primitives — ``np.arctan2`` for
angles, the numpy SVD gufunc for nullspaces, the numpy solve gufunc for the
linear systems — and numpy gufuncs apply the identical per-matrix routine
across the stacked batch, so the produced angles and hyperplane coefficients
are bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.data.dominance import (
    exchange_pair_indices,
    iter_exchange_pair_chunks,
)
from repro.exceptions import GeometryError
from repro.geometry.angles import to_angles, to_angles_many
from repro.geometry.hyperplane import Hyperplane
from repro.obs.trace import stage_span

__all__ = [
    "exchange_normal",
    "exchange_angle_2d",
    "hyperpolar",
    "hyperpolar_many",
    "hyperplanes_for_dataset",
    "exchange_arrays_2d",
    "exchange_angles_for_pairs",
]


def exchange_normal(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Return the weight-space normal ``t_i - t_j`` of the pair's ordering exchange (Eq. 5).

    The exchange hyperplane in weight space is ``normal · w = 0``; weight
    vectors on its positive side rank ``first`` above ``second`` and vice
    versa.

    >>> import numpy as np
    >>> exchange_normal(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
    array([-2.,  1.])
    """
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.shape != second.shape or first.ndim != 1:
        raise GeometryError("exchange_normal expects two vectors of the same dimension")
    return first - second


def has_exchange(first: np.ndarray, second: np.ndarray) -> bool:
    """Return True if the pair produces an ordering exchange inside the first orthant.

    Identical items and dominated pairs do not exchange anywhere in the space
    of non-negative weight vectors (§3.2, footnote 4); every other pair has
    some score difference positive and some negative, the rule of
    :func:`repro.data.dominance.exchange_pair_indices`.

    >>> import numpy as np
    >>> has_exchange(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
    True
    >>> has_exchange(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
    False
    """
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.shape != second.shape:
        raise GeometryError("has_exchange expects two vectors of the same dimension")
    difference = first - second
    return bool(np.any(difference > 0.0) and np.any(difference < 0.0))


def exchange_angle_2d(first: np.ndarray, second: np.ndarray) -> float:
    """Return the angle (with the x-axis) of the 2-D ordering exchange of a pair (Eq. 2).

    >>> import numpy as np
    >>> round(exchange_angle_2d(np.array([1.0, 2.0]), np.array([2.0, 1.0])), 6)
    0.785398

    Raises
    ------
    GeometryError
        If the items are not 2-dimensional or the pair has no exchange in the
        first quadrant (identical or dominated pair).
    """
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.shape != (2,) or second.shape != (2,):
        raise GeometryError("exchange_angle_2d expects 2-dimensional items")
    if not has_exchange(first, second):
        raise GeometryError("the pair has no ordering exchange in the first quadrant")
    dx = first[0] - second[0]
    dy = first[1] - second[1]
    # The exchange ray direction w satisfies dx*w1 + dy*w2 = 0 with w >= 0.
    # Because the pair is non-dominated, dx and dy have strictly opposite
    # signs, so the first-quadrant direction is (|dy|, |dx|).  np.arctan2 keeps
    # this bit-identical to the vectorised batch kernel.
    if dx > 0:
        weights = (-dy, dx)
    else:
        weights = (dy, -dx)
    return float(np.arctan2(weights[1], weights[0]))


#: Normal entries at most this fraction of the largest one are rounding noise.
_NORMAL_NOISE = 1e-12


def _strictly_positive_point_on(normal: np.ndarray) -> np.ndarray:
    """Return a strictly positive point ``x`` with ``normal · x = 0``.

    Such a point exists exactly when ``normal`` has both positive and
    negative entries, which is guaranteed for non-dominated pairs; it is row 0
    of :func:`_strictly_positive_points_on_many`, so the scalar and batched
    HYPERPOLAR routes start from the same bits.
    """
    if not np.any(normal > 0) or not np.any(normal < 0):
        raise GeometryError("the exchange hyperplane does not cross the first orthant")
    return _strictly_positive_points_on_many(normal[None, :])[0]


def hyperpolar(
    first: np.ndarray, second: np.ndarray, label: tuple[int, int] | None = None
) -> Hyperplane:
    """Map the ordering exchange of a pair into the angle coordinate system (Algorithm 3).

    Picks ``d-1`` linearly independent first-orthant points on the weight-space
    exchange hyperplane, converts each to its angle vector, and solves the
    linear system ``Θ · h = 1`` for the angle-space hyperplane coefficients.

    Parameters
    ----------
    first, second:
        Item scoring vectors of dimension ``d >= 3``.
    label:
        Optional pair identifier stored on the resulting hyperplane.

    Returns
    -------
    Hyperplane
        The exchange hyperplane ``h · θ = 1`` in the ``(d-1)``-dimensional
        angle space.

    >>> import numpy as np
    >>> plane = hyperpolar(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 1.0]), label=(0, 1))
    >>> plane.dimension, plane.label
    (2, (0, 1))
    """
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.ndim != 1 or first.shape != second.shape:
        raise GeometryError("hyperpolar expects two item vectors of equal dimension")
    d = first.size
    if d < 3:
        raise GeometryError("hyperpolar requires d >= 3; use exchange_angle_2d for d = 2")
    if not has_exchange(first, second):
        raise GeometryError("the pair has no ordering exchange in the first orthant")
    return _hyperpolar_unchecked(first, second, label)


def _nullspace_of_normal(normal: np.ndarray) -> np.ndarray:
    """Return a ``(d, d-1)`` orthonormal basis of ``normal``'s nullspace via SVD.

    Same construction as ``scipy.linalg.null_space`` specialised to a single
    ``(1, d)`` row: the trailing right-singular vectors span the nullspace.
    Uses the numpy SVD gufunc so the scalar path is bit-identical to the
    batched stack in :func:`hyperpolar_many` (the gufunc applies the identical
    LAPACK routine per stacked matrix).
    """
    _, singular_values, vh = np.linalg.svd(normal[None, :], full_matrices=True)
    if singular_values[0] <= 0.0:
        return np.empty((normal.size, 0))
    return vh[1:].T


def _hyperpolar_unchecked(
    first: np.ndarray, second: np.ndarray, label: tuple[int, int] | None
) -> Hyperplane:
    """Core of :func:`hyperpolar` for callers that already verified the exchange.

    The batch construction enumerates eligible pairs with the vectorised
    dominance kernel, so re-running ``has_exchange`` per pair here would undo
    that saving.
    """
    d = first.size
    normal = exchange_normal(first, second)
    base_point = _strictly_positive_point_on(normal)
    basis = _nullspace_of_normal(normal)
    if basis.shape[1] != d - 1:
        raise GeometryError("degenerate exchange normal; cannot span the exchange hyperplane")

    for attempt in range(4):
        theta_rows = []
        for column in range(d - 1):
            direction = basis[:, column]
            negative_mask = direction < 0
            if np.any(negative_mask):
                step_limit = float(np.min(base_point[negative_mask] / -direction[negative_mask]))
            else:
                step_limit = 1.0
            step = 0.5 * step_limit / (attempt + 1.0) * (1.0 + 0.37 * column)
            sample = base_point + step * direction
            sample = np.clip(sample, 0.0, None)
            if not np.any(sample > 0):
                sample = base_point
            theta_rows.append(to_angles(sample))
        theta_matrix = np.asarray(theta_rows, dtype=float)
        try:
            coefficients = np.linalg.solve(theta_matrix, np.ones(d - 1))
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(coefficients)) and np.any(np.abs(coefficients) > 1e-12):
            return Hyperplane(tuple(coefficients), label=label)
    # Last resort: least-squares fit through the sampled angle points.
    coefficients, *_ = np.linalg.lstsq(theta_matrix, np.ones(d - 1), rcond=None)
    if not np.all(np.isfinite(coefficients)) or np.all(np.abs(coefficients) < 1e-12):
        raise GeometryError("failed to construct the angle-space exchange hyperplane")
    return Hyperplane(tuple(coefficients), label=label)


def _strictly_positive_points_on_many(normals: np.ndarray) -> np.ndarray:
    """One strictly positive point on each exchange hyperplane of an ``(m, d)`` normal stack.

    Balances the positive-coefficient mass against the negative-coefficient
    mass, ``1 / (entry · count)`` per entry; zero-coefficient coordinates are
    set to 1.  Every row must contain both positive and negative entries
    (guaranteed for non-dominated pairs, and validated by
    :func:`hyperpolar_many` and :func:`_strictly_positive_point_on`).  An entry
    within ``_NORMAL_NOISE`` of zero, relative to the row's largest, counts as
    zero while a positive and a negative entry survive without it: its
    coordinate would pin every point HYPERPOLAR samples to one corner of the
    angle box.
    """
    positive, negative = normals > 0, normals < 0
    magnitudes = np.abs(normals)
    significant = magnitudes > _NORMAL_NOISE * magnitudes.max(axis=1, keepdims=True)
    keep = significant | ~(
        np.any(positive & significant, axis=1) & np.any(negative & significant, axis=1)
    )[:, None]
    positive &= keep
    negative &= keep
    positive_counts = positive.sum(axis=1)[:, None]
    negative_counts = negative.sum(axis=1)[:, None]
    points = np.ones_like(normals, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        points = np.where(positive, 1.0 / (normals * positive_counts), points)
        points = np.where(negative, 1.0 / (-normals * negative_counts), points)
    return points


def _hyperpolar_first_attempt_batch(
    normals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Run attempt 0 of the HYPERPOLAR sampling loop for a whole stack of normals.

    Returns ``(coefficients, ok)`` where ``coefficients`` is the ``(m, d-1)``
    solution stack and ``ok`` marks the rows whose attempt-0 system solved to
    finite, non-degenerate coefficients — exactly the acceptance test of the
    scalar loop's first iteration.  Rows with ``ok`` False must be re-run
    through the scalar path (which retries with smaller steps and a
    least-squares fallback); rows with ``ok`` True are bit-identical to what
    the scalar path would return, because every step — base point, SVD
    nullspace, step-limit minimisation, angle conversion, linear solve — uses
    the same primitive applied by a numpy gufunc or elementwise kernel over
    the stack.
    """
    m, d = normals.shape
    base_points = _strictly_positive_points_on_many(normals)
    # One batched SVD over the (m, 1, d) normal stack: rows 1..d-1 of each
    # ``vh`` span the exchange hyperplane, exactly as in _nullspace_of_normal.
    vh = np.linalg.svd(normals[:, None, :], full_matrices=True)[2]

    theta_stack = np.empty((m, d - 1, d - 1))
    failed = np.zeros(m, dtype=bool)
    for column in range(d - 1):
        directions = vh[:, 1 + column, :]
        negative_mask = directions < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(negative_mask, base_points / -directions, np.inf)
        step_limits = np.where(
            np.any(negative_mask, axis=1), np.min(ratios, axis=1), 1.0
        )
        # attempt = 0 of the scalar loop, kept literally: / 1.0 is exact.
        steps = 0.5 * step_limits / 1.0 * (1.0 + 0.37 * column)
        samples = np.clip(base_points + steps[:, None] * directions, 0.0, None)
        dead = ~np.any(samples > 0, axis=1)
        if np.any(dead):
            samples[dead] = base_points[dead]
        # Rows whose samples are not valid first-orthant directions (possible
        # only for pathological normals, e.g. denormal entries) go through the
        # scalar path so they raise or recover exactly as hyperpolar would.
        invalid = ~np.all(np.isfinite(samples), axis=1)
        if np.any(invalid):
            failed |= invalid
            samples[invalid] = 1.0
        theta_stack[:, column, :] = to_angles_many(samples)

    ones = np.ones((m, d - 1, 1))
    try:
        solutions = np.linalg.solve(theta_stack, ones)[..., 0]
        solved = np.ones(m, dtype=bool)
    except np.linalg.LinAlgError:
        # At least one singular system in the stack: fall back to per-row
        # solves (the same gufunc, so still bit-identical) to find survivors.
        solutions = np.zeros((m, d - 1))
        solved = np.zeros(m, dtype=bool)
        for row in range(m):
            try:
                solutions[row] = np.linalg.solve(theta_stack[row], np.ones(d - 1))
                solved[row] = True
            except np.linalg.LinAlgError:
                continue
    ok = (
        solved
        & ~failed
        & np.all(np.isfinite(solutions), axis=1)
        & np.any(np.abs(solutions) > 1e-12, axis=1)
    )
    return solutions, ok


def hyperpolar_many(
    scores: np.ndarray,
    pairs: np.ndarray,
    labels: list[tuple[int, int]] | None = None,
) -> list[Hyperplane]:
    """Construct the angle-space exchange hyperplanes of many pairs at once.

    The batched counterpart of :func:`hyperpolar` (Algorithm 3): all pairwise
    exchange normals are stacked, their nullspace bases come from one batched
    SVD over the ``(m, 1, d)`` normal stack, the sampled angle points from the
    vectorised :func:`~repro.geometry.angles.to_angles_many`, and the
    hyperplane coefficients from one batched ``np.linalg.solve`` over the
    ``(m, d-1, d-1)`` angle matrices.  The rare pairs whose first sampling
    attempt yields a singular or degenerate system (the scalar loop retries
    those with smaller steps) are re-run through the scalar path, so the
    output is bit-identical to calling :func:`hyperpolar` per pair.

    Parameters
    ----------
    scores:
        ``(n, d)`` score matrix with ``d >= 3``.
    pairs:
        ``(m, 2)`` integer array of row-index pairs, each exchange-eligible
        (neither row dominates the other — e.g. the output of
        :func:`~repro.data.dominance.exchange_pair_indices`).
    labels:
        Optional per-pair labels; defaults to the ``(i, j)`` row indices.

    Returns
    -------
    list of Hyperplane
        One hyperplane per pair, in input order.

    Raises
    ------
    GeometryError
        If ``d < 3``, the pair array is malformed, or a pair is not
        exchange-eligible (its normal does not cross the first orthant).

    >>> import numpy as np
    >>> scores = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 1.0], [5.3, 1.0, 6.0]])
    >>> planes = hyperpolar_many(scores, np.array([[0, 1], [1, 2]]))
    >>> [plane.label for plane in planes]
    [(0, 1), (1, 2)]
    >>> planes[0] == hyperpolar(scores[0], scores[1], label=(0, 1))
    True
    """
    scores = np.asarray(scores, dtype=float)
    pairs = np.asarray(pairs, dtype=int)
    if scores.ndim != 2:
        raise GeometryError("hyperpolar_many expects an (n, d) score matrix")
    d = scores.shape[1]
    if d < 3:
        raise GeometryError("hyperpolar_many requires d >= 3; use exchange_angle_2d for d = 2")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GeometryError("hyperpolar_many expects an (m, 2) pair-index array")
    if pairs.shape[0] == 0:
        return []
    if labels is None:
        labels = [(int(i), int(j)) for i, j in pairs.tolist()]
    elif len(labels) != pairs.shape[0]:
        raise GeometryError("labels must match the number of pairs")

    first = scores[pairs[:, 0]]
    second = scores[pairs[:, 1]]
    normals = first - second
    if not np.all(np.any(normals > 0, axis=1) & np.any(normals < 0, axis=1)):
        raise GeometryError(
            "every pair must be exchange-eligible (neither item may dominate the other)"
        )
    coefficients, ok = _hyperpolar_first_attempt_batch(normals)

    hyperplanes: list[Hyperplane] = []
    for row, label in enumerate(labels):
        if ok[row]:
            hyperplanes.append(Hyperplane(tuple(coefficients[row]), label=label))
        else:
            hyperplanes.append(_hyperpolar_unchecked(first[row], second[row], label))
    return hyperplanes


def hyperplanes_for_dataset(
    dataset: Dataset,
    item_indices: np.ndarray | None = None,
    *,
    pair_chunk_size: int | None = None,
    max_hyperplanes: int | None = None,
) -> list[Hyperplane]:
    """Construct every exchange hyperplane of a dataset through one entry point.

    This is the preprocessing front door shared by the exact (``SATREGIONS``)
    and approximate (§5 grid) engines.  Pair eligibility comes from the
    vectorised dominance kernel, enumerated in bounded-memory row blocks, and
    the hyperplanes of each block from the batched stacked-linear-algebra
    kernel :func:`hyperpolar_many`, bit-identical to :func:`hyperpolar` per
    pair.

    Parameters
    ----------
    dataset:
        Dataset with ``d >= 3`` scoring attributes.
    item_indices:
        Optional subset of item indices to restrict the construction to (used
        by the convex-layer optimisation); defaults to all items.
    pair_chunk_size:
        Rows per pair-enumeration block (see
        :func:`~repro.data.dominance.iter_exchange_pair_chunks`); defaults to
        an automatic bound that keeps the broadcast block near 64 MB.
    max_hyperplanes:
        Optional cap on the number of hyperplanes constructed.  The cap is
        honoured *inside* the chunked enumeration — construction stops as soon
        as the cap is reached, so a capped sweep never pays the full O(n²)
        construction cost — and yields exactly the first ``max_hyperplanes``
        hyperplanes of the uncapped enumeration order.

    Returns
    -------
    list of Hyperplane
        One hyperplane per exchanging pair, labelled with the pair's original
        item indices, in row-major pair order over ``item_indices``.

    >>> import numpy as np
    >>> from repro.data.dataset import Dataset
    >>> scores = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 1.0], [5.3, 1.0, 6.0]])
    >>> dataset = Dataset(scores=scores, scoring_attributes=["x", "y", "z"])
    >>> planes = hyperplanes_for_dataset(dataset)
    >>> pairs = [plane.label for plane in planes]
    >>> pairs
    [(0, 1), (0, 2), (1, 2)]
    >>> planes == [hyperpolar(scores[i], scores[j], label=(i, j)) for i, j in pairs]
    True
    """
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
    hyperplanes: list[Hyperplane] = []
    for position_pairs in iter_exchange_pair_chunks(
        scores[indices], row_chunk_size=pair_chunk_size
    ):
        if position_pairs.shape[0] == 0:
            continue
        if max_hyperplanes is not None:
            position_pairs = position_pairs[: max_hyperplanes - len(hyperplanes)]
        global_pairs = indices[position_pairs]
        # Per-chunk span around the stacked-SVD + batched-solve kernel; no-op
        # outside instrumented runs.
        with stage_span(
            "preprocess.hyperplane_chunk", n_pairs=int(global_pairs.shape[0])
        ):
            hyperplanes.extend(hyperpolar_many(scores, global_pairs))
        if max_hyperplanes is not None and len(hyperplanes) >= max_hyperplanes:
            break
    return hyperplanes


#: 2-D exchanges as three parallel arrays: angles, first item, second item.
ExchangeArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def exchange_arrays_2d(dataset: Dataset) -> ExchangeArrays:
    """Return all 2-D ordering exchanges of a dataset as ``(angles, i, j)`` arrays.

    Dominated and identical pairs are skipped, exactly as in Algorithm 1
    lines 2–8.  Pairs come in row-major ``i < j`` order, *not* sorted by
    angle; the ray sweep sorts them.

    Vectorised: pair eligibility comes from the bounded-memory chunks of
    :func:`~repro.data.dominance.exchange_pair_indices` and all angles from a
    single ``arctan2`` over the pairwise score differences — no per-pair
    Python calls.
    """
    if dataset.n_attributes != 2:
        raise GeometryError("exchange_arrays_2d requires a 2-attribute dataset")
    scores = dataset.scores
    return exchange_angles_for_pairs(scores, exchange_pair_indices(scores))


def exchange_angles_for_pairs(scores: np.ndarray, pairs: np.ndarray) -> ExchangeArrays:
    """The 2-D angle kernel of :func:`exchange_arrays_2d` over explicit pairs.

    Elementwise, so running it over any subset of the eligible pairs (e.g. the
    pairs touching a dataset delta's changed items, or one shard's block)
    yields exchanges bit-identical to the corresponding rows of the full
    construction — the property incremental index maintenance and sharded
    enumeration rely on.  ``pairs`` rows must be exchange-eligible ``(i, j)``
    indices into ``scores``.
    """
    scores = np.asarray(scores, dtype=float)
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    differences = scores[pairs[:, 0]] - scores[pairs[:, 1]]
    # Non-dominated 2-D pairs have dx, dy of strictly opposite signs; the
    # first-quadrant exchange direction is (|dy|, |dx|) (Eq. 2).
    angles = np.arctan2(np.abs(differences[:, 0]), np.abs(differences[:, 1]))
    return angles, pairs[:, 0].copy(), pairs[:, 1].copy()
