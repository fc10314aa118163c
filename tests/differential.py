"""Differential harness: prove two engines answer a weight grid identically.

The parallel serving/preprocessing layer (PR 9) claims *bit-identity*: a
pooled engine must be indistinguishable from its serial twin — same answers,
same oracle-call budget, same persisted index bytes — regardless of worker
count or shard completion order.  This module is the reusable measuring
instrument behind that claim:

* :func:`entry_fingerprint` collapses a batch entry — a
  :class:`~repro.core.result.SuggestionResult` or a
  :class:`~repro.parallel.pool.QueryFailure` — into a hashable tuple of
  *exact* float hex digits (``float.hex``), so two fingerprints are equal iff
  the answers are bit-identical, never merely close;
* :func:`per_query_entries` is the specification of the pool's per-query
  isolation: a plain loop of ``suggest`` calls in which a query that raises
  becomes the :class:`~repro.parallel.pool.QueryFailure` the pool must
  return for it;
* :func:`oracle_call_count` totals an engine's fairness-oracle calls wherever
  they happened — the parent oracle's ``calls`` counter plus the pool's
  ``remote_oracle_calls`` accumulator for calls made in worker processes;
* :func:`payload_bytes` canonicalises an engine's persisted form
  (``json.dumps(..., sort_keys=True)``) for byte-for-byte comparison, mapping
  engines that refuse to serialise (the serving composites) to ``None`` so
  two non-persistable engines compare equal;
* :func:`assert_engines_equivalent` runs one weight grid through both engines
  and asserts all three dimensions at once, reporting the first divergent
  query on failure.

The harness is deliberately engine-agnostic — any two objects with
``suggest_many`` / ``oracle`` / ``to_payload`` compare — so it also serves as
the fast differential smoke target of ``scripts/check_all.py``.

:func:`lp_only_regions` builds the other side of the region-route
differential: inside it, every region split and emptiness test runs the
Eq. 6 linear program, as if no region kept a polygon.  Inside
:func:`lp_centres` every representative point is the centring LP's
Chebyshev centre instead of the polygon's; the two routes' representatives
differ in their last bits, so :func:`region_geometry` and
:func:`representative_sign_vectors` give what they must keep: the marked
cells or satisfactory regions, and the arrangement region of every
representative.  Likewise, inside
:func:`slsqp_only_regions` ``MDBASELINE`` finds every region's nearest point
with one SLSQP solve, as it does at ``d >= 4``, and inside
:func:`stable_orderings` every batch of the batched oracle route is ordered
by the stable reference kernel (``tests/reference/ordering.py``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Iterator

import numpy as np
from reference.ordering import order_many_stable

from repro.core.multi_dim import MDExactIndex, _PolygonEdges
from repro.core.result import SuggestionResult
from repro.exceptions import (
    ConfigurationError,
    NoSatisfactoryFunctionError,
    NotPreprocessedError,
)
from repro.fairness import batched
from repro.geometry.hyperplane import Region
from repro.parallel.pool import QueryFailure
from repro.ranking.scoring import LinearScoringFunction

__all__ = [
    "assert_engines_equivalent",
    "entry_fingerprint",
    "lp_centres",
    "lp_only_regions",
    "make_weight_grid",
    "oracle_call_count",
    "payload_bytes",
    "per_query_entries",
    "region_geometry",
    "representative_sign_vectors",
    "slsqp_only_regions",
    "stable_orderings",
]


def _undecided(region, hyperplane=None):
    return None


@contextmanager
def lp_only_regions() -> Iterator[None]:
    """Route every ``Region`` split and emptiness test through the linear program.

    Patches the polygon decision of dimension-2 regions to "undecided" for
    the body, so ``intersects_hyperplane`` and ``is_empty`` run the LP code
    they run at ``d >= 4``.  Production code has no such switch.
    """
    decide = Region._polygon_meets
    Region._polygon_meets = _undecided
    try:
        yield
    finally:
        Region._polygon_meets = decide


def _no_polygon_centre(region, a_matrix, b_vector):
    return None


@contextmanager
def lp_centres() -> Iterator[None]:
    """Route every ``Region`` interior point through the centring linear program.

    Patches the polygon centre of dimension-2 regions to "none" for the
    body, so ``interior_point`` solves ``chebyshev_center`` as it does at
    ``d >= 4`` and for a degenerate polygon.  Split and emptiness tests keep
    their route.  Production code has no such switch.
    """
    centre = Region._polygon_centre
    Region._polygon_centre = _no_polygon_centre
    try:
        yield
    finally:
        Region._polygon_centre = centre


def region_geometry(engine) -> tuple:
    """What a d >= 3 index decided: its marked and assigned cells, or its satisfactory regions."""
    index = engine.index
    if hasattr(index, "assigned_angles"):
        return tuple(index.marked), tuple(angles is not None for angles in index.assigned_angles)
    return tuple(tuple(region.region.half_spaces) for region in index.satisfactory_regions)


def representative_sign_vectors(engine, hyperplanes) -> np.ndarray:
    """The side of every hyperplane each representative lies on: its arrangement region.

    One row per assigned cell of an approximate index, or per satisfactory
    region of an exact one.
    """
    index = engine.index
    if hasattr(index, "assigned_angles"):
        points = [angles for angles in index.assigned_angles if angles is not None]
    else:
        points = [region.representative_angles for region in index.satisfactory_regions]
    coefficients = np.array([plane.coefficients for plane in hyperplanes])
    return np.sign(np.asarray(points, dtype=float) @ coefficients.T - 1.0)


def _no_polygons(index):
    return _PolygonEdges.of([])


@contextmanager
def slsqp_only_regions() -> Iterator[None]:
    """Route every ``MDBASELINE`` nearest-point step through SLSQP.

    Patches the polygon edges of every exact index to none for the body, so
    each satisfactory region takes the per-region minimisation that
    ``d >= 4`` (and a degenerate polygon) takes.  Production code has no
    such switch.
    """
    edges = MDExactIndex._polygon_edges
    MDExactIndex._polygon_edges = _no_polygons
    try:
        yield
    finally:
        MDExactIndex._polygon_edges = edges


@contextmanager
def stable_orderings() -> Iterator[None]:
    """Order every batch of the batched oracle route with one stable argsort.

    Patches ``repro.fairness.batched.order_many`` with the reference kernel
    ``order_many_stable`` for the body, so ``evaluate_functions_many`` (the
    ``suggest_many`` pre-check, ``MDBASELINE``'s blend probes, the §5.4
    validation) orders its batches as the kernel did before it re-sorted
    only tied rows.  Production code has no such switch.
    """
    kernel = batched.order_many
    batched.order_many = order_many_stable
    try:
        yield
    finally:
        batched.order_many = kernel


def _weights_hex(weights) -> tuple[str, ...]:
    return tuple(float(value).hex() for value in weights)


def entry_fingerprint(entry) -> tuple:
    """Collapse one batch entry into an exact, hashable fingerprint.

    ``SuggestionResult`` → ``("result", query weights, satisfactory,
    suggested weights, distance)``; ``QueryFailure`` → ``("failure", index,
    weights, error_type, message)``.  All floats are rendered with
    :meth:`float.hex`, so equality means bit-identity.
    """
    if isinstance(entry, QueryFailure):
        return (
            "failure",
            entry.index,
            _weights_hex(entry.weights),
            entry.error_type,
            entry.message,
        )
    if isinstance(entry, SuggestionResult):
        return (
            "result",
            _weights_hex(entry.query.weights),
            entry.satisfactory,
            _weights_hex(entry.function.weights),
            float(entry.angular_distance).hex(),
        )
    raise ConfigurationError(
        f"cannot fingerprint a batch entry of type {type(entry).__name__}"
    )


def per_query_entries(engine, matrix) -> list:
    """What the pool must return for ``matrix``: one ``suggest`` per row.

    Row ``i`` becomes ``engine.suggest(LinearScoringFunction(row))``, or, when
    building the function or answering it raises, ``QueryFailure(i, weights,
    type(error).__name__, str(error))``.  ``NotPreprocessedError`` and
    ``NoSatisfactoryFunctionError`` propagate: they are not per-query faults.
    """
    entries = []
    for index, row in enumerate(np.asarray(matrix, dtype=float)):
        weights = tuple(row.tolist())
        try:
            entries.append(engine.suggest(LinearScoringFunction(weights)))
        except (NotPreprocessedError, NoSatisfactoryFunctionError):
            raise
        except Exception as error:  # noqa: BLE001 — every other error is the query's
            entries.append(QueryFailure(index, weights, type(error).__name__, str(error)))
    return entries


def oracle_call_count(engine) -> float:
    """Total oracle calls the engine has caused, local and remote.

    Counting oracles expose ``calls``; the pool additionally accumulates
    ``remote_oracle_calls`` for evaluations made inside worker processes,
    which the parent-side oracle instance never sees.
    """
    local = getattr(getattr(engine, "oracle", None), "calls", 0) or 0
    remote = getattr(engine, "remote_oracle_calls", 0) or 0
    return local + remote


def payload_bytes(engine) -> bytes | None:
    """Canonical bytes of the engine's persisted payload.

    ``None`` for engines that refuse to serialise (the serving composites
    raise ``ConfigurationError`` from ``to_payload``), so two such engines
    compare equal — per the contract that a pool *is* its inner engine's
    state plus serving topology.  Payloads carry no wall-clock data, so the
    bytes are compared whole.
    """
    try:
        payload = engine.to_payload()
    except ConfigurationError:
        return None
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def make_weight_grid(n_queries: int, dimension: int, seed: int = 0) -> np.ndarray:
    """A deterministic grid of non-negative weight vectors for differential runs.

    Rows are drawn from a seeded RNG and normalised to sum to one; a few
    deliberately extreme rows (single-attribute spikes) are mixed in so the
    grid exercises boundary regions, not just the simplex interior.
    """
    rng = np.random.default_rng(seed)
    grid = rng.random((n_queries, dimension))
    grid /= grid.sum(axis=1, keepdims=True)
    for row in range(0, n_queries, max(1, n_queries // 3)):
        spike = np.full(dimension, 0.01)
        spike[row % dimension] = 1.0
        grid[row] = spike / spike.sum()
    return grid


def assert_engines_equivalent(
    engine_a,
    engine_b,
    weight_grid,
    *,
    check_oracle_calls: bool = True,
    check_payloads: bool = True,
) -> list:
    """Assert two engines answer ``weight_grid`` bit-identically.

    Runs the grid through both engines' ``suggest_many``, then asserts:

    1. per-query answer fingerprints match (reporting the first divergence);
    2. both runs spent the same number of oracle calls (local + remote);
    3. the engines' persisted payloads are byte-for-byte equal.

    Returns engine A's entries so callers can make further assertions.
    """
    grid = np.asarray(weight_grid, dtype=float)
    before_a = oracle_call_count(engine_a)
    entries_a = engine_a.suggest_many(grid)
    delta_a = oracle_call_count(engine_a) - before_a
    before_b = oracle_call_count(engine_b)
    entries_b = engine_b.suggest_many(grid)
    delta_b = oracle_call_count(engine_b) - before_b

    assert len(entries_a) == len(entries_b) == grid.shape[0], (
        f"batch sizes diverge: {len(entries_a)} vs {len(entries_b)} "
        f"for {grid.shape[0]} queries"
    )
    for row, (entry_a, entry_b) in enumerate(zip(entries_a, entries_b)):
        fp_a = entry_fingerprint(entry_a)
        fp_b = entry_fingerprint(entry_b)
        assert fp_a == fp_b, (
            f"query {row} diverges:\n  A: {fp_a}\n  B: {fp_b}"
        )
    if check_oracle_calls:
        assert delta_a == delta_b, (
            f"oracle-call budgets diverge: {delta_a} vs {delta_b}"
        )
    if check_payloads:
        assert payload_bytes(engine_a) == payload_bytes(engine_b), (
            "persisted payloads diverge byte-for-byte"
        )
    return entries_a
