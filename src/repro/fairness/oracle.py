"""The fairness-oracle abstraction.

The paper's fairness model (§2) is deliberately general: a *fairness oracle*
``O : ordered(D) → {⊤, ⊥}`` is any black-box predicate over an ordering of the
items.  A scoring function is *satisfactory* when the ordering it induces is
accepted by the oracle.  All region/cell algorithms in :mod:`repro.core`
interact with fairness exclusively through this interface, which is what makes
them applicable to diversity constraints and other binary criteria as well
(§7).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import nullcontext
from typing import Callable

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import OracleError
from repro.fairness.batched import evaluate_many, ordering_matrix
from repro.fairness.incremental import as_incremental
from repro.ranking.scoring import LinearScoringFunction

__all__ = ["FairnessOracle", "CallableOracle", "CountingOracle"]

#: The context of a call no span observes (reusable: it keeps no state).
_NO_SPAN = nullcontext()


class FairnessOracle(ABC):
    """Abstract base class of all fairness oracles.

    Subclasses implement :meth:`is_satisfactory` over an ordering (an array of
    item indices, best first).  :meth:`is_satisfactory_many` judges a stack of
    orderings; its default loops :meth:`is_satisfactory` row by row, and is
    the specification a subclass's vectorised kernel must reproduce exactly.
    The convenience methods evaluate scoring functions directly.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A class whose scalar verdict is defined below its batch kernel (it,
        # or a mixin ahead of the kernel's class, redefines is_satisfactory
        # only) would judge batches by another class's rule: it gets the loop
        # over its own verdict instead.
        names = {"is_satisfactory", "is_satisfactory_many"}
        lowest = next(klass for klass in cls.__mro__ if names & vars(klass).keys())
        if "is_satisfactory_many" not in vars(lowest):
            cls.is_satisfactory_many = FairnessOracle.is_satisfactory_many

    @abstractmethod
    def is_satisfactory(self, ordering: np.ndarray, dataset: Dataset) -> bool:
        """Return True if the ordering meets the fairness criteria."""

    def is_satisfactory_many(self, orderings: np.ndarray, dataset: Dataset) -> np.ndarray:
        """Boolean verdict per row of a ``(q, n)`` ordering matrix (best first).

        Asks :meth:`is_satisfactory` once per row, in row order.
        """
        orderings = ordering_matrix(orderings)
        return np.fromiter(
            (bool(self.is_satisfactory(row, dataset)) for row in orderings),
            dtype=bool,
            count=orderings.shape[0],
        )

    def evaluate_function(self, function: LinearScoringFunction, dataset: Dataset) -> bool:
        """Order the dataset with ``function`` and evaluate the result."""
        return self.is_satisfactory(function.order(dataset), dataset)

    def __call__(self, ordering: np.ndarray, dataset: Dataset) -> bool:
        return self.is_satisfactory(ordering, dataset)

    def describe(self) -> str:
        """One-line human-readable description of the constraint."""
        return type(self).__name__


class CallableOracle(FairnessOracle):
    """Adapter turning any ``(ordering, dataset) -> bool`` callable into an oracle.

    This keeps the paper's claim literal: *any* binary function over an
    ordering can drive the system, including user-supplied diversity criteria.
    """

    def __init__(self, function: Callable[[np.ndarray, Dataset], bool], description: str = ""):
        if not callable(function):
            raise OracleError("CallableOracle requires a callable")
        self._function = function
        self._description = description or getattr(function, "__name__", "callable oracle")

    def is_satisfactory(self, ordering: np.ndarray, dataset: Dataset) -> bool:
        result = self._function(ordering, dataset)
        # Genuine scalar verdicts are coerced: a 0-d array from a vectorised
        # predicate unwraps to its scalar, and 0/1 integers count as verdicts.
        # Anything ambiguous — multi-element arrays (whose truthiness raises
        # anyway), None, floats, other integers — is a contract violation and
        # gets a clear, typed error naming the offending type.
        if isinstance(result, np.ndarray):
            if result.ndim == 0:
                result = result.item()
            else:
                raise OracleError(
                    f"the callable wrapped by {self._description!r} returned an "
                    f"array of shape {result.shape}; an oracle must return one "
                    "boolean verdict per call"
                )
        if isinstance(result, (bool, np.bool_)):
            return bool(result)
        if isinstance(result, (int, np.integer)) and result in (0, 1):
            return bool(result)
        raise OracleError(
            f"the callable wrapped by {self._description!r} returned "
            f"{type(result).__name__} ({result!r}); an oracle must return a "
            "boolean verdict"
        )

    def describe(self) -> str:
        return self._description


class CountingOracle(FairnessOracle):
    """Wrapper that counts oracle invocations.

    The complexity results of the paper (Theorems 1 and 3) are stated in terms
    of the number of oracle calls, so benchmarks wrap their oracles in this
    class to report that number alongside wall-clock time.

    This is the one counting rule of the library: +1 per ``is_satisfactory``
    or ``verdict``, +q per ``is_satisfactory_many`` batch of q, +1 per sector
    of a ``sweep_verdicts`` call, so a workload reports the same number
    whether it runs per query, batched, per swap or as one whole sweep.  A
    batch is forwarded to the wrapped oracle's ``is_satisfactory_many``, and
    the incremental protocol to the wrapped oracle, capable exactly when it
    is.  Every call passes through two hooks,
    :meth:`_count` and :meth:`_span`; a subclass that observes the calls
    (:class:`~repro.obs.instrument.InstrumentedOracle`) extends those and
    redefines no protocol method, so :func:`~repro.fairness.incremental.as_bulk_sweep`
    still hands it whole sweeps.
    """

    def __init__(self, inner: FairnessOracle):
        if not isinstance(inner, FairnessOracle):
            raise OracleError(
                f"{type(self).__name__} wraps a FairnessOracle, got {type(inner).__name__}"
            )
        self.inner = inner
        self.calls = 0
        self._incremental_delegate = None

    # ------------------------------------------------------------------ #
    # the two hooks
    # ------------------------------------------------------------------ #
    def _count(self, method: str, verdicts: int, swaps: int = 0) -> None:
        """Record ``verdicts`` verdicts and ``swaps`` applied swaps.

        ``method`` is ``"is_satisfactory"``, ``"is_satisfactory_many"`` or
        ``"verdict"`` (a whole sweep counts as its sectors' verdicts), or
        ``"apply_swap"``, which asks no verdict.
        """
        self.calls += verdicts

    def _span(self, name: str, **attributes):
        """The context one forwarded call runs in; a plain counter opens none."""
        return _NO_SPAN

    # ------------------------------------------------------------------ #
    # scalar and batched verdicts
    # ------------------------------------------------------------------ #
    def is_satisfactory(self, ordering: np.ndarray, dataset: Dataset) -> bool:
        self._count("is_satisfactory", 1)
        with self._span("oracle.is_satisfactory"):
            return self.inner.is_satisfactory(ordering, dataset)

    def is_satisfactory_many(self, orderings: np.ndarray, dataset: Dataset) -> np.ndarray:
        orderings = ordering_matrix(orderings)
        q = int(orderings.shape[0])
        self._count("is_satisfactory_many", q)
        with self._span("oracle.is_satisfactory_many", q=q):
            return evaluate_many(self.inner, orderings, dataset)

    # ------------------------------------------------------------------ #
    # incremental protocol.  The wrapped oracle may not implement it at all
    # (``incremental_capable`` then reports False); forwarding is guarded so a
    # direct call fails with a clear error instead of an ``AttributeError``.
    # ------------------------------------------------------------------ #
    def incremental_capable(self) -> bool:
        return as_incremental(self.inner) is not None

    def _incremental_inner(self):
        if self._incremental_delegate is None:
            raise OracleError(
                f"the oracle wrapped by {type(self).__name__} does not support the "
                "incremental protocol (or begin() has not run); evaluate it "
                "as a black box via is_satisfactory instead"
            )
        return self._incremental_delegate

    def begin(self, ordering: np.ndarray, dataset: Dataset) -> None:
        inner = as_incremental(self.inner)
        if inner is None:
            raise OracleError(
                f"the oracle wrapped by {type(self).__name__} does not support the "
                "incremental protocol; evaluate it as a black box via "
                "is_satisfactory instead"
            )
        # Cache the probed delegate so the per-swap hot path stays a plain
        # attribute lookup instead of re-running the capability probe.
        self._incremental_delegate = inner
        with self._span("oracle.begin"):
            inner.begin(ordering, dataset)

    def apply_swap(self, pos_i: int, pos_j: int) -> None:
        self._count("apply_swap", 0, swaps=1)
        self._incremental_inner().apply_swap(pos_i, pos_j)

    def verdict(self) -> bool:
        inner = self._incremental_inner()
        self._count("verdict", 1)
        return inner.verdict()

    def sweep_verdicts(
        self,
        low: np.ndarray,
        leaving: np.ndarray,
        entering: np.ndarray,
        judge_at: np.ndarray,
    ) -> np.ndarray:
        """A whole sweep at once, counted as its sectors' verdicts and its events' swaps."""
        inner = self._incremental_inner()
        n_sectors, n_events = int(judge_at.size), int(low.size)
        self._count("verdict", n_sectors, swaps=n_events)
        with self._span("oracle.sweep_verdicts", n_sectors=n_sectors, n_events=n_events):
            return inner.sweep_verdicts(low, leaving, entering, judge_at)

    def reset(self) -> None:
        """Zero the call count (a subclass's metrics stay cumulative)."""
        self.calls = 0

    def describe(self) -> str:
        return f"counting({self.inner.describe()})"
