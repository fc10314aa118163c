"""Linear scoring functions and the orderings they induce.

The paper's ranking model (§2) scores an item ``t`` as the weighted sum
``f(t) = Σ w_j · t[j]`` with non-negative weights, sorts items by decreasing
score and optionally truncates to the top-``k``.  A scoring function is
identified with the *ray* of its weight vector: positive scalings induce the
same ordering, so equality and distance between functions are defined on the
angle representation (see :mod:`repro.geometry.angles`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ScoringFunctionError
from repro.geometry.angles import angular_distance, to_angles, to_weights

__all__ = ["LinearScoringFunction", "order_many", "random_scoring_function"]


@dataclass(frozen=True)
class LinearScoringFunction:
    """A linear scoring function ``f(t) = Σ w_j · t[j]`` with non-negative weights.

    Instances are immutable and hashable; two functions compare equal exactly
    when their weight tuples are identical (use :meth:`same_ray` /
    :meth:`angular_distance_to` for scale-insensitive comparisons).
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        weights = tuple(float(value) for value in self.weights)
        if len(weights) < 2:
            raise ScoringFunctionError("a scoring function needs at least two weights")
        if not all(np.isfinite(weights)):
            raise ScoringFunctionError("weights must be finite")
        if any(value < 0 for value in weights):
            raise ScoringFunctionError("weights must be non-negative (paper §2)")
        if all(value == 0 for value in weights):
            raise ScoringFunctionError("at least one weight must be positive")
        object.__setattr__(self, "weights", weights)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_angles(cls, angles: np.ndarray, radius: float = 1.0) -> "LinearScoringFunction":
        """Build a function from its angle-coordinate representation."""
        return cls(tuple(to_weights(np.asarray(angles, dtype=float), radius=radius)))

    @classmethod
    def _from_trusted(cls, weights: tuple[float, ...]) -> "LinearScoringFunction":
        """Construct from an already-validated tuple of Python floats.

        Batch query paths validate a whole weight matrix with one vectorised
        check (finite, non-negative, some positive entry per row), so the
        per-instance ``__post_init__`` re-validation would be pure overhead —
        at thousands of queries per call it dominates the batch runtime.  The
        caller guarantees the invariants; instances are indistinguishable
        (``==``, ``hash``, behaviour) from normally constructed ones.
        """
        function = object.__new__(cls)
        object.__setattr__(function, "weights", weights)
        return function

    @classmethod
    def _row_constructor(cls, matrix: np.ndarray):
        """The constructor for functions built from the rows of a weight matrix.

        One vectorised pass checks the whole ``(q, d)`` matrix (finite,
        non-negative, some positive entry per row).  When every row passes,
        rows may skip re-validation through :meth:`_from_trusted`; otherwise
        the validating constructor raises exactly what the scalar path raises.
        """
        trusted = bool(
            np.isfinite(matrix).all()
            and not (matrix < 0).any()
            and (matrix > 0).any(axis=1).all()
        )
        return cls._from_trusted if trusted else cls

    @classmethod
    def uniform(cls, dimension: int) -> "LinearScoringFunction":
        """The equal-weights function ``(1/d, ..., 1/d)``."""
        if dimension < 2:
            raise ScoringFunctionError("dimension must be >= 2")
        return cls(tuple([1.0 / dimension] * dimension))

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Number of scoring attributes the function expects."""
        return len(self.weights)

    def as_array(self) -> np.ndarray:
        """Weights as a numpy array (memoized; the returned array is read-only).

        Scoring, ordering and angular-distance computations all start from
        this array, and sweep/arrangement code calls them in tight loops — so
        the conversion is done once per (immutable) function instance.
        """
        array = getattr(self, "_weights_array", None)
        if array is None:
            array = np.asarray(self.weights, dtype=float)
            array.setflags(write=False)
            object.__setattr__(self, "_weights_array", array)
        return array

    def normalized(self) -> "LinearScoringFunction":
        """The same ray with unit Euclidean norm."""
        array = self.as_array()
        return LinearScoringFunction(tuple(array / np.linalg.norm(array)))

    def to_angles(self) -> np.ndarray:
        """Angle-coordinate representation of the function's ray."""
        return to_angles(self.as_array())

    def angular_distance_to(self, other: "LinearScoringFunction") -> float:
        """Angular distance (radians) to another function's ray."""
        return angular_distance(self.as_array(), other.as_array())

    def same_ray(self, other: "LinearScoringFunction", tolerance: float = 1e-6) -> bool:
        """Return True if the two functions induce the same ordering on every dataset."""
        return self.angular_distance_to(other) <= tolerance

    # ------------------------------------------------------------------ #
    # scoring and ordering
    # ------------------------------------------------------------------ #
    def score(self, dataset: Dataset) -> np.ndarray:
        """Score every item of the dataset."""
        self._check_dataset(dataset)
        return dataset.scores @ self.as_array()

    def score_item(self, item: np.ndarray) -> float:
        """Score a single item vector."""
        item = np.asarray(item, dtype=float)
        if item.shape != (self.dimension,):
            raise ScoringFunctionError(
                f"item of dimension {item.shape} does not match function of dimension "
                f"{self.dimension}"
            )
        return float(np.dot(item, self.as_array()))

    def order(self, dataset: Dataset) -> np.ndarray:
        """Return item indices ordered by decreasing score.

        Ties are broken by ascending item index so the ordering is
        deterministic, which keeps oracle evaluations reproducible.
        """
        scores = self.score(dataset)
        # numpy's stable sort is ascending; sort by negative score to get a
        # descending order while preserving index order within ties.
        return np.argsort(-scores, kind="stable")

    def top_k(self, dataset: Dataset, k: int) -> np.ndarray:
        """Return the indices of the ``k`` highest-scoring items, in rank order."""
        if k <= 0:
            raise ScoringFunctionError("k must be positive")
        return self.order(dataset)[: min(k, dataset.n_items)]

    def _check_dataset(self, dataset: Dataset) -> None:
        if dataset.n_attributes != self.dimension:
            raise ScoringFunctionError(
                f"function has {self.dimension} weights but the dataset has "
                f"{dataset.n_attributes} scoring attributes"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        formatted = ", ".join(f"{value:.4g}" for value in self.weights)
        return f"LinearScoringFunction([{formatted}])"


def order_many(dataset: Dataset, weight_matrix: np.ndarray) -> np.ndarray:
    """Orderings induced by every row of a weight matrix, stacked as ``(q, n)``.

    The batched counterpart of :meth:`LinearScoringFunction.order`: row ``i``
    of the result is bit-identical to
    ``LinearScoringFunction(tuple(weight_matrix[i])).order(dataset)``.  The
    whole batch is scored with one stacked ``np.matmul`` over the
    ``(q, n, d) @ (q, d, 1)`` broadcast — the gufunc applies the identical
    per-matrix kernel that scores a single function, which is what keeps the
    scores exactly equal to the scalar path; a plain ``scores @ W.T`` GEMM
    accumulates in a different order and can drift by an ulp.

    Every row is then ordered by NumPy's default (unstable) argsort of its
    negated scores.  A row whose scores are all distinct has exactly one
    descending order, so the unstable sort returns the stable one.  The
    negated scores are sorted in place to find the other rows — those whose
    sorted values are not strictly increasing (equal scores, ``-0.0`` beside
    ``0.0``, NaN) — and only those rows are re-scored with the same matmul
    (a row's scores do not depend on the batch it sits in) and re-ordered
    with a stable argsort, ties broken by ascending item index.  On a dataset
    with two equal score vectors
    (:attr:`~repro.data.dataset.Dataset.has_duplicate_scores`) every row
    ties, so every row is ordered by the stable argsort at once.

    Parameters
    ----------
    dataset:
        The dataset to order.
    weight_matrix:
        ``(q, d)`` matrix of non-negative weight rows, ``d`` matching the
        dataset's scoring attributes.

    Returns
    -------
    numpy.ndarray
        ``(q, n)`` integer matrix; row ``i`` lists item indices by decreasing
        score under ``weight_matrix[i]``, ties broken by ascending item index.

    Raises
    ------
    ScoringFunctionError
        If the matrix is not 2-D or its width does not match the dataset.
    """
    weight_matrix = np.asarray(weight_matrix, dtype=float)
    if weight_matrix.ndim != 2 or weight_matrix.shape[1] != dataset.n_attributes:
        raise ScoringFunctionError(
            f"order_many expects a (q, {dataset.n_attributes}) weight matrix, "
            f"got shape {weight_matrix.shape}"
        )
    negated = _negated_scores(dataset, weight_matrix)
    if dataset.has_duplicate_scores:
        return negated.argsort(axis=1, kind="stable")
    orderings = negated.argsort(axis=1)
    negated.sort(axis=1)
    increasing = negated[:, 1:] > negated[:, :-1]
    del negated
    if increasing.all():
        return orderings
    tied = np.flatnonzero(~increasing.all(axis=1))
    # Free the mask before the tied rows are scored again.
    del increasing
    orderings[tied] = _negated_scores(dataset, weight_matrix[tied]).argsort(
        axis=1, kind="stable"
    )
    return orderings


def _negated_scores(dataset: Dataset, weight_matrix: np.ndarray) -> np.ndarray:
    """``(q, n)`` negated scores of every weight row, by one stacked matmul."""
    scores = np.matmul(dataset.scores[None, :, :], weight_matrix[:, :, None])[..., 0]
    return np.negative(scores, out=scores)


def random_scoring_function(
    dimension: int, rng: np.random.Generator | None = None
) -> LinearScoringFunction:
    """Draw a scoring function uniformly at random from the space of directions.

    The direction is uniform on the first orthant of the unit sphere (drawn
    from the absolute value of a standard Gaussian, then normalised), which is
    the natural "random query" distribution used in the paper's validation and
    timing experiments (§6.2–6.3).

    When no generator is passed, a fresh seed-0 generator is used, so repeated
    bare calls return the *same* function: every draw in this library is
    seeded, and callers who want a sequence of distinct functions pass their
    own generator (as :func:`repro.ranking.queries.random_queries` does).
    """
    if dimension < 2:
        raise ScoringFunctionError("dimension must be >= 2")
    rng = rng if rng is not None else np.random.default_rng(0)
    direction = np.abs(rng.normal(size=dimension))
    while not np.any(direction > 0):  # pragma: no cover - probability zero
        direction = np.abs(rng.normal(size=dimension))
    return LinearScoringFunction(tuple(direction / np.linalg.norm(direction)))
