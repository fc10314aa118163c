"""Happy-path overhead of the fallback chain: it must be nearly free.

The fallback chain (`repro.resilience.fallback.FallbackEngine`) only earns
its keep when the protection costs nothing while nothing is failing: the
fast route of ``suggest_many`` is one native batch call on the first tier
plus O(1) bookkeeping.  This benchmark times wrapped against unwrapped
serving and asserts the answers stay bit-identical; the target is **< 5%**
overhead on the committed record's serving rows.

Run standalone to regenerate the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_resilience_overhead.py

which writes ``BENCH_resilience.json`` at the repository root.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.engine import TwoDConfig, create_engine
from repro.data.synthetic import make_compas_like
from repro.fairness.proportional import ProportionalOracle
from repro.resilience import FallbackEngine

from _results import write_bench_record

DEFAULT_N_VALUES = (200, 1000)
DEFAULT_Q_VALUES = (100, 1000)


def _serving_pair(n: int):
    """A preprocessed 2-D engine and the same engine behind a fallback chain."""
    dataset = make_compas_like(n=n, seed=5).project(
        ["c_days_from_compas", "juv_other_count"]
    )
    oracle = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.10
    )
    engine = create_engine(dataset, oracle, TwoDConfig()).preprocess()
    wrapped = FallbackEngine.from_engines([engine]).preprocess()
    return engine, wrapped


def _interleaved(bare_call, wrapped_call, repeats: int):
    """Best-of-``repeats`` for both calls, measured in alternation.

    Interleaving cancels slow machine-level drift (thermal, noisy
    neighbours) that would otherwise bias whichever path is timed second.
    """
    bare_call(), wrapped_call()  # warm caches before timing either path
    best_bare = best_wrapped = float("inf")
    bare = wrapped = None
    for _ in range(repeats):
        start = time.perf_counter()
        bare = bare_call()
        best_bare = min(best_bare, time.perf_counter() - start)
        start = time.perf_counter()
        wrapped = wrapped_call()
        best_wrapped = min(best_wrapped, time.perf_counter() - start)
    return best_bare, bare, best_wrapped, wrapped


def compare_suggest_many(n: int, q: int, repeats: int = 7) -> dict:
    """Time ``suggest_many`` through the chain vs on the bare engine."""
    engine, wrapped = _serving_pair(n)
    rng = np.random.default_rng(q)
    queries = np.abs(rng.normal(size=(q, 2)))
    queries[np.all(queries == 0.0, axis=1)] = 1.0  # probability-zero guard
    bare_seconds, bare, wrapped_seconds, served = _interleaved(
        lambda: engine.suggest_many(queries),
        lambda: wrapped.suggest_many(queries),
        repeats,
    )
    return {
        "n": n,
        "q": q,
        "bare_seconds": bare_seconds,
        "wrapped_seconds": wrapped_seconds,
        "overhead_fraction": wrapped_seconds / bare_seconds - 1.0,
        "identical": served == bare,
        "n_faulted": wrapped.last_report.n_faulted,
    }


def run_grid(n_values=DEFAULT_N_VALUES, q_values=DEFAULT_Q_VALUES, repeats: int = 15) -> dict:
    serving = [
        compare_suggest_many(n, q, repeats=repeats) for n in n_values for q in q_values
    ]
    return {
        "benchmark": "resilience_happy_path_overhead",
        "workload": "make_compas_like(seed=5) projected to 2 attributes, "
        "FM1 (<= share+10% African-American in top 30%); random first-orthant queries",
        "bare_path": "QueryEngine.suggest_many",
        "wrapped_path": "FallbackEngine.from_engines([engine])",
        "target": "happy-path overhead below 5% at the largest batch size",
        "suggest_many": serving,
    }


def test_happy_path_overhead_is_small(benchmark, once):
    """Reduced-grid pytest entry: wrapped serving is identical and nearly free."""
    payload = once(benchmark, run_grid, n_values=(1000,), q_values=(1000,), repeats=5)
    print("\n[perf] resilience wrapper overhead (happy path)")
    for row in payload["suggest_many"]:
        print(
            f"  suggest_many n={row['n']} q={row['q']}: "
            f"{row['bare_seconds'] * 1e3:.2f}ms -> {row['wrapped_seconds'] * 1e3:.2f}ms "
            f"({row['overhead_fraction'] * 100:+.1f}%)"
        )
    for row in payload["suggest_many"]:
        assert row["identical"]
    # The committed BENCH_resilience.json records < 5% on the full grid; the
    # in-suite bound is looser to tolerate noisy CI boxes.
    assert payload["suggest_many"][-1]["overhead_fraction"] < 0.25


def main() -> None:
    payload = run_grid()
    output = write_bench_record(
        "BENCH_resilience.json",
        payload,
        parameters={
            "n_values": list(DEFAULT_N_VALUES),
            "q_values": list(DEFAULT_Q_VALUES),
            "repeats": 15,
            "seed": 5,
        },
        repeat_policy="best of 15, bare and wrapped interleaved per repeat",
    )
    for row in payload["suggest_many"]:
        print(
            f"suggest_many n={row['n']} q={row['q']}: bare {row['bare_seconds'] * 1e3:.2f}ms, "
            f"wrapped {row['wrapped_seconds'] * 1e3:.2f}ms, "
            f"overhead {row['overhead_fraction'] * 100:+.2f}%, identical={row['identical']}"
        )
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
