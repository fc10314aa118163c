"""Batched vs per-query oracle pre-checks on the approximate engine.

After the geometry was vectorised, the remaining per-query hot loop in
``ApproxEngine.suggest_many`` was the oracle itself: line 1 of ``MDONLINE``
(Algorithm 11) ran one full ``argsort`` plus one Python-level
``is_satisfactory`` per query.  The batch route
(``repro.fairness.batched``) answers the whole batch with one stacked
matmul, one unstable argsort and a stable re-sort of only the tied rows
(``order_many``), and one ``is_satisfactory_many``.  This
benchmark times ``suggest_many`` against a Python loop over ``suggest`` on
the approximate engine across a (d, q) grid, asserting the batched results
are *identical* to the loop (same ``SuggestionResult`` objects, bit for bit)
and that the oracle-call counts match one call per query on both routes.  A
second dataset at d = 3 repeats the first half of the items' scores in the
second half, so every query ties and ``order_many`` takes its stable route.

Run standalone to regenerate the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_oracle_batch.py

which writes ``BENCH_oracle_batch.json`` at the repository root with the full
d ∈ {3, 4} × q ∈ {100, 1000} grid and the tied dataset's d = 3 rows.  The
identity invariant is also guarded by the ``perf_smoke``-marked tier-1 tests
in ``tests/test_batched_oracle.py``.
"""

from __future__ import annotations

import time

import numpy as np
from _results import write_bench_record
from _timing import time_batched_queries

from repro.core.engine import ApproxConfig
from repro.core.system import FairRankingDesigner
from repro.data.dataset import Dataset
from repro.data.synthetic import make_compas_like
from repro.fairness.oracle import CountingOracle
from repro.fairness.proportional import ProportionalOracle

DEFAULT_D_VALUES = (3, 4)
#: Dimensions at which the tied dataset is also measured.
DEFAULT_TIED_D_VALUES = (3,)
DEFAULT_Q_VALUES = (100, 1000)
DEFAULT_N = 600
DEFAULT_N_CELLS = 64
DEFAULT_MAX_HYPERPLANES = 150

_ATTRIBUTES = ["c_days_from_compas", "juv_other_count", "start", "age"]


def _designer(n: int, d: int, n_cells: int, max_hyperplanes: int, tied: bool = False):
    dataset = make_compas_like(n=n, seed=6).project(_ATTRIBUTES[:d])
    if tied:
        scores = dataset.scores.copy()
        scores[n - n // 2 :] = scores[: n // 2]
        dataset = Dataset(
            scores=scores, scoring_attributes=dataset.scoring_attributes, types=dataset.types
        )
    oracle = CountingOracle(
        ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
    )
    designer = FairRankingDesigner(
        dataset, oracle, ApproxConfig(n_cells=n_cells, max_hyperplanes=max_hyperplanes)
    ).preprocess()
    return designer, oracle


def compare_oracle_batch(
    designer: FairRankingDesigner, oracle: CountingOracle, q: int, repeats: int = 3
) -> dict:
    """Time looped vs batched answering of ``q`` random queries on one designer."""
    d = designer.dataset.n_attributes
    rng = np.random.default_rng(q + d)
    queries = np.abs(rng.normal(size=(q, d)))
    queries[np.all(queries == 0.0, axis=1)] = 1.0  # probability-zero guard

    # Oracle-call accounting first: one call per query on both routes.
    oracle.reset()
    looped = [designer.suggest(row) for row in queries.tolist()]
    loop_calls = oracle.calls
    oracle.reset()
    batched = designer.suggest_many(queries)
    batched_calls = oracle.calls

    timing = time_batched_queries(designer, queries, repeats=repeats)
    return {
        "n": timing.n_items,
        "d": d,
        "q": timing.n_queries,
        "engine": timing.engine,
        "loop_seconds": timing.loop_seconds,
        "batched_seconds": timing.batched_seconds,
        "speedup": timing.speedup,
        "identical": timing.identical and batched == looped,
        "loop_oracle_calls": loop_calls,
        "batched_oracle_calls": batched_calls,
        "oracle_calls_identical": loop_calls == batched_calls == q,
    }


def run_grid(
    d_values=DEFAULT_D_VALUES,
    q_values=DEFAULT_Q_VALUES,
    n: int = DEFAULT_N,
    n_cells: int = DEFAULT_N_CELLS,
    max_hyperplanes: int = DEFAULT_MAX_HYPERPLANES,
    repeats: int = 3,
    tied_d_values=DEFAULT_TIED_D_VALUES,
) -> dict:
    results = []
    cases = [(d, False) for d in d_values] + [(d, True) for d in tied_d_values]
    for d, tied in cases:
        designer, oracle = _designer(n, d, n_cells, max_hyperplanes, tied=tied)
        for q in q_values:
            row = compare_oracle_batch(designer, oracle, q, repeats=repeats)
            results.append({"dataset": "tied" if tied else "compas-like", **row})
    return {
        "benchmark": "oracle_batch_speedup",
        "workload": f"make_compas_like(n={n}, seed=6) projected to d attributes, "
        "FM1 (<= share+10% African-American in top 30%); random first-orthant queries; "
        "dataset 'tied': the last n/2 items repeat the first n/2 items' scores",
        "loop_path": "one ApproxEngine.suggest call per weight vector "
        "(per-query argsort + is_satisfactory)",
        "batched_path": "ApproxEngine.suggest_many (order_many stacked matmul + "
        "unstable argsort with a stable re-sort of tied rows only, or one stable "
        "argsort when two items have equal scores, one is_satisfactory_many per "
        "batch, query unit vectors from one to_weights_many)",
        "generated_unix_time": time.time(),
        "results": results,
    }


def test_batched_oracle_precheck_is_identical_and_faster(benchmark, once):
    """Reduced-grid pytest entry: batched path is identical and clearly faster."""
    payload = once(
        benchmark,
        run_grid,
        d_values=(3,),
        q_values=(100, 500),
        n=300,
        n_cells=36,
        max_hyperplanes=60,
        repeats=2,
        tied_d_values=(),
    )
    print("\n[perf] batched vs looped oracle pre-check (approximate engine)")
    for row in payload["results"]:
        print(
            f"  d={row['d']} q={row['q']}: {row['loop_seconds'] * 1e3:.2f}ms -> "
            f"{row['batched_seconds'] * 1e3:.2f}ms ({row['speedup']:.1f}x)"
        )
    for row in payload["results"]:
        assert row["identical"]
        assert row["oracle_calls_identical"]
    # The committed BENCH_oracle_batch.json records the full-grid speedups
    # (>= 3x at q=1000); keep a modest floor here for noisy CI boxes.
    assert payload["results"][-1]["speedup"] >= 2.0


def main() -> None:
    payload = run_grid()
    output = write_bench_record(
        "BENCH_oracle_batch.json",
        payload,
        parameters={
            "d_values": list(DEFAULT_D_VALUES),
            "tied_d_values": list(DEFAULT_TIED_D_VALUES),
            "q_values": list(DEFAULT_Q_VALUES),
            "n": DEFAULT_N,
            "n_cells": DEFAULT_N_CELLS,
            "max_hyperplanes": DEFAULT_MAX_HYPERPLANES,
            "repeats": 3,
            "seed": 6,
        },
        repeat_policy="best of 3 repeats per (d, q), loop and batched interleaved",
    )
    for row in payload["results"]:
        print(
            f"{row['dataset']} d={row['d']} q={row['q']} n={row['n']}: "
            f"loop {row['loop_seconds'] * 1e3:.2f}ms, "
            f"batched {row['batched_seconds'] * 1e3:.2f}ms, "
            f"speedup {row['speedup']:.1f}x, identical={row['identical']}, "
            f"oracle_calls_identical={row['oracle_calls_identical']}"
        )
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
