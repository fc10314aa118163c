"""Batched vs looped online answering: ``suggest_many`` against a suggest loop.

The unified engine API answers weight batches natively — the 2-D engine
classifies a whole batch with one ``searchsorted`` over the cached
interval-start array instead of one Python ``query`` per weight vector.  This
benchmark times both paths on the 2-D pipeline over the (n, q) grid the
engine-API PR targets, asserting the batched results are *identical* to the
loop (same ``SuggestionResult`` objects, bit for bit).

Run standalone to regenerate the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_batch_query.py

which writes ``BENCH_batch_query.json`` at the repository root with the full
n ∈ {200, 1000} × q ∈ {100, 1000} grid.  The identity invariant is also
guarded by the ``perf_smoke``-marked tier-1 tests in ``tests/test_engine.py``.
"""

from __future__ import annotations

import time

import numpy as np
from _results import write_bench_record
from _timing import time_batched_queries

from repro.core.engine import TwoDConfig
from repro.core.system import FairRankingDesigner
from repro.data.synthetic import make_compas_like
from repro.fairness.proportional import ProportionalOracle

DEFAULT_N_VALUES = (200, 1000)
DEFAULT_Q_VALUES = (100, 1000)


def _designer(n: int) -> FairRankingDesigner:
    dataset = make_compas_like(n=n, seed=5).project(
        ["c_days_from_compas", "juv_other_count"]
    )
    oracle = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.10
    )
    return FairRankingDesigner(dataset, oracle, TwoDConfig()).preprocess()


def compare_batch_query(designer: FairRankingDesigner, q: int, repeats: int = 5) -> dict:
    """Time looped vs batched answering of ``q`` random queries on one designer."""
    rng = np.random.default_rng(q)
    queries = np.abs(rng.normal(size=(q, 2)))
    queries[np.all(queries == 0.0, axis=1)] = 1.0  # probability-zero guard
    timing = time_batched_queries(designer, queries, repeats=repeats)
    return {
        "n": timing.n_items,
        "q": timing.n_queries,
        "engine": timing.engine,
        "loop_seconds": timing.loop_seconds,
        "batched_seconds": timing.batched_seconds,
        "speedup": timing.speedup,
        "identical": timing.identical,
    }


def run_grid(n_values=DEFAULT_N_VALUES, q_values=DEFAULT_Q_VALUES, repeats: int = 5) -> dict:
    results = []
    for n in n_values:
        designer = _designer(n)
        for q in q_values:
            results.append(compare_batch_query(designer, q, repeats=repeats))
    return {
        "benchmark": "batch_query_speedup",
        "workload": "make_compas_like(seed=5) projected to 2 attributes, "
        "FM1 (<= share+10% African-American in top 30%); random first-orthant queries",
        "loop_path": "one FairRankingDesigner.suggest call per weight vector",
        "batched_path": "FairRankingDesigner.suggest_many (one searchsorted per batch)",
        "generated_unix_time": time.time(),
        "results": results,
    }


def test_batched_suggest_is_identical_and_faster(benchmark, once):
    """Reduced-grid pytest entry: batched path is identical and clearly faster."""
    payload = once(benchmark, run_grid, n_values=(200,), q_values=(100, 1000), repeats=3)
    print("\n[perf] batched vs looped suggest (2-D engine)")
    for row in payload["results"]:
        print(
            f"  n={row['n']} q={row['q']}: {row['loop_seconds'] * 1e3:.2f}ms -> "
            f"{row['batched_seconds'] * 1e3:.2f}ms ({row['speedup']:.1f}x)"
        )
    for row in payload["results"]:
        assert row["identical"]
    # The committed BENCH_batch_query.json records the full-grid speedups
    # (>= 5x at q=1000); keep a modest floor here for noisy CI boxes.
    assert payload["results"][-1]["speedup"] >= 3.0


def main() -> None:
    payload = run_grid()
    output = write_bench_record(
        "BENCH_batch_query.json",
        payload,
        parameters={
            "n_values": list(DEFAULT_N_VALUES),
            "q_values": list(DEFAULT_Q_VALUES),
            "repeats": 5,
            "seed": 5,
        },
        repeat_policy="best of 5 repeats per (n, q), loop and batched interleaved",
    )
    for row in payload["results"]:
        print(
            f"n={row['n']} q={row['q']}: loop {row['loop_seconds'] * 1e3:.2f}ms, "
            f"batched {row['batched_seconds'] * 1e3:.2f}ms, "
            f"speedup {row['speedup']:.1f}x, identical={row['identical']}"
        )
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
