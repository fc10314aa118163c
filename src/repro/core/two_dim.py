"""The two-dimensional pipeline: ``2DRAYSWEEP`` offline and ``2DONLINE`` online (§3).

In 2-D every ranking function is a single angle ``θ ∈ [0, π/2]`` with the
x-axis, and every pair of non-dominated items exchanges order at exactly one
angle.  Sweeping a ray from the x-axis to the y-axis and swapping pairs at
their exchange angles visits every distinct ordering exactly once, so the
fairness oracle needs to be evaluated only once per *sector* between
consecutive exchange angles.  Adjacent satisfactory sectors are merged into
*satisfactory regions*; online queries then binary-search the sorted region
list (Algorithm 2).

Hot-path architecture
---------------------
Offline, the exchanges stay three parallel arrays ``(angles, i, j)`` from the
broadcast kernel in :mod:`repro.geometry.dual` to the engine's maintenance
cache.  One ``np.lexsort`` puts them in ``(angle, i, j)`` order, and event
groups come from an ``np.diff`` over the sorted angles.  A group of several
exchanges (duplicate rows crossed by a third item, collinear items) is put
in insertion-sort order, so each of its exchanges swaps two adjacent items.
Two kernels then judge the sectors:

* **array** — for oracles :func:`~repro.fairness.incremental.as_bulk_sweep`
  accepts (the top-``k`` counting family).  Every item's rank before every
  event is a per-item cumulative sum of ±1 moves.  One vectorised check
  proves each event an adjacent transposition; the oracle's
  ``sweep_verdicts`` then turns the ranks into one verdict per sector.
* **loop** — the per-swap reference, and the path of every oracle or input
  the array kernel does not cover (prefix and black-box oracles, and rounded
  angles that leave a swap non-adjacent).  With the
  :class:`~repro.fairness.incremental.IncrementalOracle` protocol it calls
  ``apply_swap`` per event and ``verdict()`` per sector; without it,
  ``is_satisfactory`` per sector.

Every route makes exactly one counted oracle call per sector, so the paper's
oracle-call metric (Theorem 1) is unchanged; the ``preprocess.sweep`` span
records which kernel ran.  Online, :class:`TwoDIndex` caches the interval
start angles as a NumPy array whenever ``intervals`` is assigned, keeping
``2DONLINE`` a true O(log |intervals|) ``searchsorted`` without per-query list
rebuilding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import GeometryError, NoSatisfactoryFunctionError, NotPreprocessedError
from repro.fairness.incremental import as_bulk_sweep, as_incremental
from repro.fairness.oracle import FairnessOracle
from repro.geometry.angles import HALF_PI
from repro.geometry.dual import ExchangeArrays, exchange_arrays_2d
from repro.obs.trace import stage_span
from repro.core.result import SuggestionResult
from repro.ranking.scoring import LinearScoringFunction

__all__ = ["AngularInterval", "TwoDIndex", "TwoDRaySweep"]

#: Exchange angles closer than this are processed as a single sweep event.
_ANGLE_GROUP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class AngularInterval:
    """A closed interval ``[start, end]`` of satisfactory angles."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.start <= self.end <= HALF_PI + 1e-12:
            raise GeometryError(f"invalid angular interval [{self.start}, {self.end}]")

    def contains(self, angle: float, tolerance: float = 1e-12) -> bool:
        """Return True if the angle lies in the interval."""
        return self.start - tolerance <= angle <= self.end + tolerance

    def distance_to(self, angle: float) -> float:
        """Distance from an angle to the interval (0 if inside)."""
        if self.contains(angle):
            return 0.0
        return min(abs(angle - self.start), abs(angle - self.end))

    def closest_angle_to(self, angle: float) -> float:
        """The interval point closest to ``angle``."""
        if self.contains(angle):
            return angle
        return self.start if abs(angle - self.start) <= abs(angle - self.end) else self.end


@dataclass
class TwoDIndex:
    """The sorted list of satisfactory angular regions produced by the ray sweep.

    Attributes
    ----------
    intervals:
        Maximal satisfactory intervals, sorted by start angle and disjoint.
        Stored as a tuple (any sequence assigned is normalised) so the cached
        start-angle array can never silently desynchronise through in-place
        mutation — reassign to change the intervals.
    n_exchanges:
        Number of ordering exchanges found (the left axis of paper Fig. 17).
    oracle_calls:
        Number of fairness-oracle evaluations made during the sweep.
    """

    intervals: tuple[AngularInterval, ...] = field(default_factory=tuple)
    n_exchanges: int = 0
    oracle_calls: int = 0

    def __setattr__(self, name: str, value) -> None:
        # Keep the sorted start-angle array in sync with `intervals` so online
        # queries binary-search a cached NumPy array instead of rebuilding a
        # Python list per query.  The intervals are frozen into a tuple so the
        # cache cannot be bypassed by in-place mutation.
        if name == "intervals":
            value = tuple(value)
            starts = np.array([interval.start for interval in value], dtype=float)
            ends = np.array([interval.end for interval in value], dtype=float)
            object.__setattr__(self, "_interval_starts", starts)
            object.__setattr__(self, "_interval_ends", ends)
        object.__setattr__(self, name, value)

    @property
    def interval_starts(self) -> np.ndarray:
        """Sorted start angles of the satisfactory intervals (cached)."""
        return self._interval_starts

    @property
    def interval_ends(self) -> np.ndarray:
        """End angles of the satisfactory intervals, aligned with :attr:`interval_starts`."""
        return self._interval_ends

    @property
    def has_satisfactory_region(self) -> bool:
        """True if any function at all is satisfactory."""
        return bool(self.intervals)

    def is_satisfactory_angle(self, angle: float) -> bool:
        """Return True if the given angle falls inside a satisfactory region."""
        position = int(np.searchsorted(self._interval_starts, angle, side="right"))
        for candidate in (position - 1, position):
            if 0 <= candidate < len(self.intervals) and self.intervals[candidate].contains(angle):
                return True
        return False

    def query(self, function: LinearScoringFunction) -> SuggestionResult:
        """Answer a CLOSEST SATISFACTORY FUNCTION query (Algorithm 2, ``2DONLINE``).

        Runs a binary search over the sorted satisfactory intervals; the
        suggestion preserves the query's weight magnitude (only the direction
        changes), as in the paper.

        Raises
        ------
        NoSatisfactoryFunctionError
            If the index contains no satisfactory region at all.
        NotPreprocessedError
            If the index is empty because preprocessing never ran.
        """
        if self.oracle_calls == 0 and not self.intervals:
            raise NotPreprocessedError("run TwoDRaySweep before issuing online queries")
        if not self.intervals:
            raise NoSatisfactoryFunctionError(
                "no scoring function satisfies the fairness constraint on this dataset"
            )
        if function.dimension != 2:
            raise GeometryError("TwoDIndex answers 2-dimensional queries only")
        # The radius is written as sqrt(x² + y²) rather than np.linalg.norm so
        # the batched query_many path (which evaluates the same expression
        # elementwise) produces bit-identical suggestions.
        weights = function.as_array()
        w0, w1 = float(weights[0]), float(weights[1])
        radius = math.sqrt(w0 * w0 + w1 * w1)
        angle = math.atan2(w1, w0)

        position = int(np.searchsorted(self._interval_starts, angle, side="right"))
        candidates = [
            self.intervals[index]
            for index in (position - 1, position)
            if 0 <= index < len(self.intervals)
        ]
        for interval in candidates:
            if interval.contains(angle):
                return SuggestionResult(
                    query=function,
                    satisfactory=True,
                    function=function,
                    angular_distance=0.0,
                )
        best_interval = min(self.intervals, key=lambda interval: interval.distance_to(angle))
        best_angle = best_interval.closest_angle_to(angle)
        # Interval endpoints are exact ordering-exchange angles, where the
        # ordering is tied and the oracle verdict is ambiguous; nudge the
        # suggestion slightly into the interval's interior so the returned
        # function provably induces the satisfactory ordering.
        width = best_interval.end - best_interval.start
        nudge = min(1e-7, 0.25 * width)
        if best_angle == best_interval.start:
            best_angle += nudge
        elif best_angle == best_interval.end:
            best_angle -= nudge
        suggestion = LinearScoringFunction(
            (radius * math.cos(best_angle), radius * math.sin(best_angle))
        )
        return SuggestionResult(
            query=function,
            satisfactory=False,
            function=suggestion,
            angular_distance=abs(angle - best_angle),
        )

    def query_many(self, weights_matrix) -> list[SuggestionResult]:
        """Answer a batch of queries, identically to looping :meth:`query`.

        The whole batch is classified with one ``searchsorted`` over the
        cached start-angle array; the nearest interval of each unsatisfactory
        query is then resolved with vectorised endpoint arithmetic (the
        sorted, disjoint intervals make the scan in :meth:`query` equivalent
        to comparing the two intervals adjacent to the insertion point).
        Every floating-point step reproduces the scalar path exactly, so the
        returned :class:`~repro.core.result.SuggestionResult` objects are
        bit-identical to a Python loop over :meth:`query`.

        Raises the same errors as :meth:`query` (empty index, wrong
        dimensionality), checked once for the whole batch.
        """
        matrix = np.asarray(weights_matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != 2:
            raise GeometryError("query_many expects a (q, 2) weight matrix")
        if self.oracle_calls == 0 and not self.intervals:
            raise NotPreprocessedError("run TwoDRaySweep before issuing online queries")
        if not self.intervals:
            raise NoSatisfactoryFunctionError(
                "no scoring function satisfies the fairness constraint on this dataset"
            )
        rows = matrix.tolist()
        radii = np.sqrt(matrix[:, 0] * matrix[:, 0] + matrix[:, 1] * matrix[:, 1])
        angles = np.array([math.atan2(row[1], row[0]) for row in rows], dtype=float)

        starts = self._interval_starts
        ends = self._interval_ends
        n_intervals = len(starts)
        positions = np.searchsorted(starts, angles, side="right")
        has_left = positions > 0
        has_right = positions < n_intervals
        left = np.clip(positions - 1, 0, n_intervals - 1)
        right = np.clip(positions, 0, n_intervals - 1)
        tolerance = 1e-12
        in_left = has_left & (angles >= starts[left] - tolerance) & (angles <= ends[left] + tolerance)
        in_right = (
            has_right & (angles >= starts[right] - tolerance) & (angles <= ends[right] + tolerance)
        )
        satisfied = in_left | in_right

        # Nearest interval for the unsatisfied queries: ends (and starts) are
        # increasing, so the closest candidates are the intervals adjacent to
        # the insertion point; ties go left, matching min()'s first-wins scan.
        distance_left = np.where(has_left, angles - ends[left], np.inf)
        distance_right = np.where(has_right, starts[right] - angles, np.inf)
        choose_left = distance_left <= distance_right
        chosen = np.where(choose_left, left, right)
        chosen_start = starts[chosen]
        chosen_end = ends[chosen]
        endpoint = np.where(choose_left, chosen_end, chosen_start)
        nudge = np.minimum(1e-7, 0.25 * (chosen_end - chosen_start))
        best = np.where(
            endpoint == chosen_start,
            endpoint + nudge,
            np.where(endpoint == chosen_end, endpoint - nudge, endpoint),
        )
        distances = np.abs(angles - best)

        make_function = LinearScoringFunction._row_constructor(matrix)
        results: list[SuggestionResult] = []
        satisfied_list = satisfied.tolist()
        radii_list = radii.tolist()
        best_list = best.tolist()
        distance_list = distances.tolist()
        append = results.append
        result_type, cos, sin = SuggestionResult, math.cos, math.sin
        for position, row in enumerate(rows):
            function = make_function((row[0], row[1]))
            if satisfied_list[position]:
                append(result_type(function, True, function, 0.0))
            else:
                radius = radii_list[position]
                best_angle = best_list[position]
                suggestion = make_function(
                    (radius * cos(best_angle), radius * sin(best_angle))
                )
                append(result_type(function, False, suggestion, distance_list[position]))
        return results


class TwoDRaySweep:
    """Offline indexing of satisfactory regions in 2-D (Algorithm 1, ``2DRAYSWEEP``).

    Parameters
    ----------
    dataset:
        A dataset with exactly two scoring attributes.
    oracle:
        The fairness oracle that labels orderings.  When it implements the
        incremental-oracle protocol, the sweep follows the oracle's state
        across swaps instead of re-evaluating it per sector: in one
        ``sweep_verdicts`` call when the array kernel applies, else in O(1)
        per swap.  A black-box oracle (e.g. a
        :class:`~repro.fairness.oracle.CallableOracle`) judges every sector
        with ``is_satisfactory``.
    exchange_builder:
        Exchange-construction function returning ``(angles, i, j)`` arrays
        (defaults to the vectorised
        :func:`~repro.geometry.dual.exchange_arrays_2d`); index maintenance
        and sharded enumeration inject their exchanges here.

    After :meth:`run`, :attr:`exchanges` holds the exchanges the sweep
    consumed as ``(angles, i, j)`` arrays in ``(angle, i, j)`` order.
    """

    def __init__(
        self,
        dataset: Dataset,
        oracle: FairnessOracle,
        exchange_builder=None,
    ) -> None:
        if dataset.n_attributes != 2:
            raise GeometryError("TwoDRaySweep requires a dataset with exactly 2 scoring attributes")
        self.dataset = dataset
        self.oracle = oracle
        self.exchange_builder = exchange_builder or exchange_arrays_2d
        self.exchanges: ExchangeArrays | None = None

    def run(self) -> TwoDIndex:
        """Sweep the ray from the x-axis to the y-axis and index satisfactory regions."""
        with stage_span("preprocess.exchange_build") as span:
            angles, first, second = self.exchange_builder(self.dataset)
            # One lexsort reproduces the (angle, i, j) tuple order.
            n_items = self.dataset.n_items
            order = np.lexsort(
                (_item_key(second, n_items), _item_key(first, n_items), angles)
            )
            angles, first, second = angles[order], first[order], second[order]
            self.exchanges = (angles, first, second)
            if span is not None:
                span.set("n_exchanges", int(angles.size))
        index = TwoDIndex(n_exchanges=int(angles.size))
        incremental = as_incremental(self.oracle)

        with stage_span("preprocess.sweep", incremental=incremental is not None) as span:
            # Ordering at angle 0 (f = x): descending x, ties broken by
            # descending y (the order that holds for angles slightly above 0),
            # then by item index.
            scores = self.dataset.scores
            ordering = np.lexsort((np.arange(n_items), -scores[:, 1], -scores[:, 0]))
            # Sector boundaries: 0, the grouped exchange angles, π/2.  The
            # sector before group g is judged once the events before the
            # group's first exchange are applied; a first group at angle 0
            # has no sector before it.
            starts = _group_starts(angles)
            bounds = np.concatenate(([0.0], angles[starts], [HALF_PI]))
            judge_at = np.append(starts, angles.size)
            if starts.size and not angles[0] > 0.0:
                bounds, judge_at = bounds[1:], judge_at[1:]
            if starts.size < angles.size:
                order = _insertion_order(scores[:, 0], ordering, first, second, starts)
                first, second = first[order], second[order]
            trace = None
            if incremental is not None and as_bulk_sweep(incremental) is not None:
                trace = _adjacent_swap_trace(scores[:, 0], ordering, first, second)
            if trace is not None:
                incremental.begin(ordering, self.dataset)
                flags = np.asarray(incremental.sweep_verdicts(*trace, judge_at), dtype=bool)
            else:
                flags = self._sweep_loop(ordering, first, second, judge_at, incremental)
            index.oracle_calls = int(judge_at.size)
            if span is not None:
                span.set("n_sectors", int(starts.size) + 1)
                span.set("kernel", "loop" if trace is None else "array")

        with stage_span("preprocess.interval_build") as span:
            index.intervals = _merge_sectors(bounds, flags)
            if span is not None:
                span.set("n_intervals", len(index.intervals))
        return index

    def _sweep_loop(
        self,
        ordering: np.ndarray,
        first: np.ndarray,
        second: np.ndarray,
        judge_at: np.ndarray,
        incremental,
    ) -> list[bool]:
        """The per-swap sweep: apply the exchanges in order, judging each sector in turn.

        The reference the array kernel reproduces, and the path of every
        oracle or input it does not cover.  With ``incremental`` the oracle
        follows each swap; without it the oracle judges each ordering afresh.
        """
        ordering = ordering.tolist()
        position_of = [0] * len(ordering)
        for position, item in enumerate(ordering):
            position_of[item] = position
        if incremental is not None:
            incremental.begin(np.asarray(ordering, dtype=int), self.dataset)
            apply_swap, evaluate = incremental.apply_swap, incremental.verdict
        else:
            apply_swap = None

            def evaluate() -> bool:
                return self.oracle.is_satisfactory(np.asarray(ordering, dtype=int), self.dataset)

        first, second = first.tolist(), second.tolist()
        flags: list[bool] = []
        applied = 0
        for stop in judge_at.tolist():
            for i, j in zip(first[applied:stop], second[applied:stop]):
                position_i, position_j = position_of[i], position_of[j]
                ordering[position_i], ordering[position_j] = j, i
                position_of[i], position_of[j] = position_j, position_i
                if apply_swap is not None:
                    apply_swap(position_i, position_j)
            applied = stop
            flags.append(evaluate())
        return flags


def _item_key(items: np.ndarray, n_items: int) -> np.ndarray:
    """Item ids as a sort key: 16-bit when they fit, so stable sorts take NumPy's radix sort."""
    return items.astype(np.uint16) if n_items <= 1 << 16 else items


def _group_starts(angles: np.ndarray) -> np.ndarray:
    """Index of the first exchange of every sweep event group, for sorted ``angles``.

    An angle joins the current group when it lies within
    ``_ANGLE_GROUP_TOLERANCE`` of the group's *first* angle.  A gap wider than
    the tolerance between neighbours therefore always starts a group (float
    subtraction is monotone, so the distance to the group's first angle is at
    least that gap).  Only a run of near-ties spanning more than the
    tolerance end to end needs the first-angle loop.
    """
    if angles.size == 0:
        return np.empty(0, dtype=np.intp)
    runs = np.concatenate(([0], np.flatnonzero(np.diff(angles) > _ANGLE_GROUP_TOLERANCE) + 1))
    lasts = np.append(runs[1:], angles.size) - 1
    wide = np.flatnonzero(angles[lasts] - angles[runs] > _ANGLE_GROUP_TOLERANCE)
    if wide.size == 0:
        return runs
    starts = runs.tolist()
    values = angles.tolist()
    for run in wide.tolist():
        group_first = values[runs[run]]
        for position in range(runs[run] + 1, lasts[run] + 1):
            if abs(values[position] - group_first) > _ANGLE_GROUP_TOLERANCE:
                starts.append(position)
                group_first = values[position]
    return np.array(sorted(starts), dtype=np.intp)


def _move_ranks(
    x_scores: np.ndarray, ordering: np.ndarray, first: np.ndarray, second: np.ndarray, groups=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Each exchange's two items and their ranks before it, or around its group.

    Before its exchange the item with the larger x-score is ahead; at the
    exchange it moves one place down and its partner one place up.  An item's
    rank before an exchange is its rank at angle 0 plus a per-item cumulative
    sum of its ±1 moves in earlier exchanges.  Given ``groups`` (each
    exchange's group id, non-decreasing), the ranks are taken before and after
    the exchange's group instead, since the moves inside a group add up the
    same in any order.  Returns ``(leaving, entering, before, after)``: the
    item moving down and the item moving up at each exchange, and per move
    (exchange ``e``'s down move at ``2e``, its up move at ``2e + 1``) the
    mover's rank before, and given ``groups`` after, else ``None``.
    """
    n_events = first.size
    ahead = x_scores[first] > x_scores[second]
    leaving = np.where(ahead, first, second)
    entering = np.where(ahead, second, first)
    rank0 = np.empty(ordering.size, dtype=np.int64)
    rank0[ordering] = np.arange(ordering.size)
    items = np.empty(2 * n_events, dtype=np.intp)
    items[0::2], items[1::2] = leaving, entering
    moves = np.empty(2 * n_events, dtype=np.int64)
    moves[0::2], moves[1::2] = 1, -1
    # A stable sort by item keeps each item's moves in event order, so the
    # moves of one item in one group are a contiguous run.
    by_item = np.argsort(_item_key(items, ordering.size), kind="stable")
    sorted_items = items[by_item]
    sorted_moves = moves[by_item]
    moved_before = np.cumsum(sorted_moves) - sorted_moves
    new_item = np.diff(sorted_items, prepend=-1) != 0
    item_starts = np.flatnonzero(new_item)
    base = rank0[sorted_items] - np.repeat(
        moved_before[item_starts], np.diff(item_starts, append=sorted_items.size)
    )
    before = np.empty_like(moves)
    if groups is None:
        before[by_item] = base + moved_before
        return leaving, entering, before, None
    new_run = new_item | (np.diff(np.repeat(groups, 2)[by_item], prepend=-1) != 0)
    run = np.cumsum(new_run) - 1
    run_lasts = np.append(np.flatnonzero(new_run)[1:], 2 * n_events) - 1
    after = np.empty_like(moves)
    before[by_item] = base + moved_before[new_run][run]
    after[by_item] = base + (moved_before + sorted_moves)[run_lasts][run]
    return leaving, entering, before, after


def _insertion_order(
    x_scores: np.ndarray, ordering: np.ndarray, first: np.ndarray, second: np.ndarray, starts
) -> np.ndarray:
    """Permutation putting every event group's exchanges in insertion-sort order.

    The pairs inverted between the orderings before and after a group are
    exactly the group's exchanging pairs, so an insertion sort swaps only
    those pairs, each once, and every swap is adjacent.  It lifts the items
    moving up in their order at the group's start, each past the items above
    it from the one that ends lowest.  In ``(angle, i, j)`` order a pair of
    duplicate rows crossed by a third item, or a collinear triple whose index
    order differs from its rank order, would swap non-adjacent items.
    """
    groups = np.repeat(np.arange(starts.size), np.diff(np.append(starts, first.size)))
    _, _, before, after = _move_ranks(x_scores, ordering, first, second, groups)
    return np.lexsort((-after[0::2], before[1::2], groups))


def _adjacent_swap_trace(
    x_scores: np.ndarray, ordering: np.ndarray, first: np.ndarray, second: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Positions of the ordered exchanges, when every one is an adjacent transposition.

    Each exchange's ranks come from :func:`_move_ranks`.  They are checked,
    not trusted: if on every event the partner sits exactly one place below
    (``rank(up) == rank(down) + 1``), induction over the events shows they are
    the per-swap loop's positions, so every loop swap is ``(low, low + 1)``.
    Returns ``(low, leaving, entering)`` per event — the smaller of the two
    swapped positions, the item moving down from it and the item moving up
    into it — or ``None`` when any event fails the check (rounding can put
    two near-tied exchange angles in separate groups out of their exact
    order, which makes a swap non-adjacent).
    """
    leaving, entering, before, _ = _move_ranks(x_scores, ordering, first, second)
    low = before[0::2]
    if not np.array_equal(before[1::2], low + 1):
        return None
    return low, leaving, entering


def _merge_sectors(bounds: np.ndarray, flags) -> list[AngularInterval]:
    """Merge runs of consecutive satisfactory sectors into maximal intervals.

    Sector ``s`` spans ``[bounds[s], bounds[s + 1]]``.
    """
    padded = np.concatenate(([False], np.asarray(flags, dtype=bool), [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [
        AngularInterval(start, end)
        for start, end in zip(bounds[edges[0::2]].tolist(), bounds[edges[1::2]].tolist())
    ]
