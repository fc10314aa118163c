"""The incremental-oracle protocol for sweep-style algorithms.

The 2-D ray sweep (§3) visits orderings that differ by *one transposition* per
exchange event, yet the black-box oracle interface forces every sector to be
re-evaluated from a cold start — O(k) or worse per sector, ~n² sectors.  The
:class:`IncrementalOracle` protocol lets an oracle follow the sweep instead:

* ``begin(ordering, dataset)`` — initialise internal state for an ordering;
* ``apply_swap(pos_i, pos_j)`` — the items at two positions of the current
  ordering swapped places (adjacent in theory; the sweep may batch coincident
  exchange angles, so arbitrary positions must be handled);
* ``verdict()`` — the satisfaction verdict for the *current* ordering.

For top-``k`` counting constraints the state update is O(1) per swap — the
group count changes only when a swap crosses the rank-``k`` boundary — which
turns the sweep's oracle cost from O(sectors · k) into O(sectors).  Verdicts
must be *exactly* those of ``is_satisfactory`` on the same ordering; the
equivalence is asserted property-style in the test suite, and the sweep counts
one oracle call per ``verdict()`` so the paper's reported oracle-call metric
is unchanged.

The top-``k`` counting oracles also judge a whole sweep in one call, after
``begin``:

* ``sweep_verdicts(low, leaving, entering, judge_at)`` — event ``e`` is the
  adjacent transposition of positions ``low[e]`` and ``low[e] + 1``
  (``leaving[e]`` moves down, ``entering[e]`` moves up); return the verdict
  after the first ``judge_at[s]`` events for every sector ``s``.

The sweep uses it only when it has proved every event adjacent (see
:mod:`repro.core.two_dim`) and :func:`as_bulk_sweep` accepts the oracle;
wrappers count one call per sector, as the per-swap loop does.

Any oracle that does not implement the protocol (or reports itself incapable
via ``incremental_capable``) is used as a black box, so user-supplied
:class:`~repro.fairness.oracle.CallableOracle` criteria keep working
untouched.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import OracleError

__all__ = [
    "IncrementalOracle",
    "as_incremental",
    "as_bulk_sweep",
    "TopKGroupCounter",
    "PrefixGroupCounter",
    "prefix_violations",
]


@runtime_checkable
class IncrementalOracle(Protocol):
    """Structural protocol of oracles that track a verdict across transpositions.

    Implementors may additionally expose ``incremental_capable() -> bool`` to
    signal at runtime whether the protocol can actually be used (wrappers and
    composites are capable only when the oracles they delegate to are).
    """

    def begin(self, ordering: np.ndarray, dataset: Dataset) -> None:
        """Initialise incremental state for ``ordering`` (best first)."""
        ...

    def apply_swap(self, pos_i: int, pos_j: int) -> None:
        """Record that the items at positions ``pos_i`` and ``pos_j`` swapped."""
        ...

    def verdict(self) -> bool:
        """Satisfaction verdict for the current (post-swap) ordering."""
        ...


def _delegate_oracles(node) -> list:
    """Oracles a composite/wrapper forwards the incremental protocol to.

    Inspects instance attributes only (``children`` / ``child`` / ``inner``),
    so a delegating *property* over the same underlying children is not
    double-counted.
    """
    state = getattr(node, "__dict__", {})
    delegates = []
    children = state.get("children")
    if isinstance(children, (list, tuple)):
        delegates.extend(children)
    for attribute in ("child", "inner"):
        candidate = state.get(attribute)
        if candidate is not None and hasattr(candidate, "is_satisfactory"):
            delegates.append(candidate)
    return delegates


def _tree_shares_nodes(oracle) -> bool:
    """True if the same oracle instance is reachable twice in a composite tree.

    Composites forward ``begin``/``apply_swap`` to every child reference, so a
    shared instance would receive each swap more than once and corrupt its
    counter state (a double-applied transposition self-cancels).  Such trees
    fall back to black-box evaluation, which handles sharing fine.
    """
    seen: set[int] = set()
    stack = [oracle]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            return True
        seen.add(id(node))
        stack.extend(_delegate_oracles(node))
    return False


def _not_overridden_below(oracle, method: str, others: tuple[str, ...]) -> bool:
    """True unless a class below the one defining ``method`` redefines one of ``others``.

    The guard of every protocol probe: a subclass that redefines, say,
    ``is_satisfactory`` without redefining ``verdict`` would be silently swept
    with the *parent's* incremental verdict, diverging from its own black-box
    semantics.  Detect that by requiring every MRO class that defines one of
    ``others`` to be at or above the one defining ``method``.
    """
    mro = type(oracle).__mro__

    def owner(name: str) -> int | None:
        return next(
            (position for position, cls in enumerate(mro) if name in cls.__dict__), None
        )

    anchor = owner(method)
    if anchor is None:
        return True
    return all(
        position is None or position >= anchor for position in map(owner, others)
    )


def as_incremental(oracle) -> IncrementalOracle | None:
    """Return ``oracle`` as an :class:`IncrementalOracle`, or ``None``.

    ``None`` means the caller must fall back to black-box
    ``is_satisfactory`` evaluation — because the oracle does not implement the
    protocol, reports itself incapable, or overrides ``is_satisfactory`` below
    the class that provides ``verdict`` (in which case the inherited
    incremental state would not reflect the override).
    """
    if not isinstance(oracle, IncrementalOracle):
        return None
    if not _not_overridden_below(oracle, "verdict", ("is_satisfactory",)):
        return None
    capable = getattr(oracle, "incremental_capable", None)
    if capable is not None and not capable():
        return None
    if _tree_shares_nodes(oracle):
        return None
    return oracle


def _bulk_capable(node) -> bool:
    if not callable(getattr(node, "sweep_verdicts", None)):
        return False
    if not _not_overridden_below(
        node, "sweep_verdicts", ("verdict", "apply_swap", "is_satisfactory")
    ):
        return False
    return all(_bulk_capable(delegate) for delegate in _delegate_oracles(node))


def as_bulk_sweep(oracle) -> IncrementalOracle | None:
    """Return ``oracle`` when one ``sweep_verdicts`` call may judge a whole sweep.

    Requires :func:`as_incremental` to accept the oracle, and every node of
    its tree to define ``sweep_verdicts`` at or below the classes defining its
    ``verdict``, ``apply_swap`` and ``is_satisfactory``: a subclass that
    overrides one of those (to observe or change the per-swap path) gets the
    per-swap loop.  ``None`` means the sweep runs that loop.
    """
    if as_incremental(oracle) is None or not _bulk_capable(oracle):
        return None
    return oracle


class TopKGroupCounter:
    """Maintains one group's member count in the top-``k`` under transpositions.

    The count changes only when a swap moves an item across the rank-``k``
    boundary, making each update O(1).
    """

    def __init__(
        self, dataset: Dataset, ordering: np.ndarray, attribute: str, group, k: int
    ) -> None:
        if not 1 <= k <= dataset.n_items:
            raise OracleError(f"k={k} outside valid range 1..{dataset.n_items}")
        column = dataset.type_column(attribute)
        self._member = np.asarray(column == group)
        self._ordering = np.array(ordering, dtype=int, copy=True)
        if self._ordering.shape != (dataset.n_items,):
            raise OracleError("ordering must cover every item exactly once")
        self.k = k
        self.count = int(np.sum(self._member[self._ordering[:k]]))

    def apply_swap(self, pos_i: int, pos_j: int) -> None:
        ordering = self._ordering
        low, high = (pos_i, pos_j) if pos_i <= pos_j else (pos_j, pos_i)
        leaving, entering = ordering[low], ordering[high]
        ordering[low], ordering[high] = entering, leaving
        if low < self.k <= high:
            self.count += int(self._member[entering]) - int(self._member[leaving])

    def counts_along(
        self,
        low: np.ndarray,
        leaving: np.ndarray,
        entering: np.ndarray,
        judge_at: np.ndarray,
    ) -> np.ndarray:
        """The count after the first ``judge_at[s]`` of a stream of adjacent swaps.

        Event ``e`` swaps positions ``low[e]`` and ``low[e] + 1``, so it
        crosses the rank-``k`` boundary exactly when ``low[e] == k - 1``; the
        count is then the current one plus a cumulative sum of the crossing
        events' member changes.  The counter's own state does not advance.
        """
        steps = np.zeros(low.size + 1, dtype=np.int64)
        crossing = np.flatnonzero(low == self.k - 1)
        member = self._member.astype(np.int64)
        steps[crossing + 1] = member[entering[crossing]] - member[leaving[crossing]]
        return self.count + np.cumsum(steps)[judge_at]


def prefix_violations(
    counts: np.ndarray,
    required: np.ndarray | None,
    allowed: np.ndarray | None,
    enforced: np.ndarray,
    window: slice = slice(None),
) -> np.ndarray:
    """Flags of the prefixes (last axis of ``counts``) that break an enforced bound.

    ``window`` of the per-prefix ``required`` / ``allowed`` bounds (``None``
    when missing) and the ``enforced`` mask lines up with ``counts``.
    """
    flags = np.zeros(counts.shape, dtype=bool)
    if required is not None:
        flags |= counts < required[window]
    if allowed is not None:
        flags |= counts > allowed[window]
    return flags & enforced[window]


class PrefixGroupCounter:
    """Maintains per-prefix member counts (lengths ``1..k``) under transpositions.

    A swap of positions ``p < q`` shifts the counts of prefix lengths
    ``p+1..q`` by a constant, so the update touches only that slice — O(1) for
    the adjacent swaps the ray sweep produces.  A running total of violated
    prefixes makes the verdict O(1): callers supply the per-prefix lower /
    upper count bounds (as float arrays, matching the ``ceil``/``floor``
    thresholds of the black-box oracles) and an ``enforced`` mask.
    """

    def __init__(
        self,
        dataset: Dataset,
        ordering: np.ndarray,
        attribute: str,
        group,
        k: int,
        required: np.ndarray | None,
        allowed: np.ndarray | None,
        enforced: np.ndarray | None = None,
    ) -> None:
        if not 1 <= k <= dataset.n_items:
            raise OracleError(f"k={k} outside valid range 1..{dataset.n_items}")
        column = dataset.type_column(attribute)
        self._member = np.asarray(column == group)
        self._ordering = np.array(ordering, dtype=int, copy=True)
        if self._ordering.shape != (dataset.n_items,):
            raise OracleError("ordering must cover every item exactly once")
        self.k = k
        self._required = None if required is None else np.asarray(required, dtype=float)
        self._allowed = None if allowed is None else np.asarray(allowed, dtype=float)
        self._enforced = (
            np.ones(k, dtype=bool) if enforced is None else np.asarray(enforced, dtype=bool)
        )
        self._counts = np.cumsum(self._member[self._ordering[:k]].astype(np.int64))
        self._violated = self._violation_flags(self._counts, slice(0, k))
        self.n_violations = int(np.sum(self._violated))

    def _violation_flags(self, counts: np.ndarray, window: slice) -> np.ndarray:
        return prefix_violations(counts, self._required, self._allowed, self._enforced, window)

    def apply_swap(self, pos_i: int, pos_j: int) -> None:
        ordering = self._ordering
        low, high = (pos_i, pos_j) if pos_i <= pos_j else (pos_j, pos_i)
        moved_up, moved_down = ordering[high], ordering[low]
        ordering[low], ordering[high] = moved_up, moved_down
        if low >= self.k:
            return
        delta = int(self._member[moved_up]) - int(self._member[moved_down])
        if delta == 0:
            return
        window = slice(low, min(high, self.k))  # prefix lengths low+1 .. min(high, k)
        self._counts[window] += delta
        fresh = self._violation_flags(self._counts[window], window)
        self.n_violations += int(np.sum(fresh)) - int(np.sum(self._violated[window]))
        self._violated[window] = fresh

    @property
    def satisfied(self) -> bool:
        """True when no enforced prefix violates its bounds."""
        return self.n_violations == 0
