"""Incremental maintenance benchmark: ``apply_delta`` vs full rebuild.

Times the PR-10 maintenance seam on the 2-D engine: a small mixed
insert/delete/update delta applied through
:meth:`~repro.core.engine.QueryEngine.apply_delta` (which re-sweeps only the
exchange pairs touching changed items) against preprocessing a fresh engine
from scratch on the mutated dataset.  Every run *asserts* the maintained
engine is bit-identical to the rebuild — same answer fingerprints, same
oracle-call budget, same persisted payload bytes — via the shared
:mod:`differential` harness; the timing numbers are only reported once that
proof passes.

Run standalone to regenerate the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_incremental.py

which writes ``BENCH_incremental.json`` at the repository root with the full
n ∈ {500, 2000} grid.  The pytest entry point runs a reduced size so the
benchmark suite stays quick; the bit-identity invariant is also guarded by
the ``dynamic``-marked tier-1 tests in ``tests/test_dynamic_equivalence.py``.
"""

from __future__ import annotations

import sys
import time

import numpy as np
from _results import REPO_ROOT, write_bench_record

sys.path.insert(0, str(REPO_ROOT / "tests"))

from differential import assert_engines_equivalent, make_weight_grid  # noqa: E402

from repro.core.engine import TwoDConfig, create_engine  # noqa: E402
from repro.core.maintenance import DatasetDelta  # noqa: E402
from repro.data.synthetic import make_compas_like  # noqa: E402
from repro.fairness.oracle import CountingOracle  # noqa: E402
from repro.fairness.proportional import ProportionalOracle  # noqa: E402

DEFAULT_N_VALUES = (500, 2000)
DATASET_SEED = 5
DELTA_SEED = 7
N_QUERIES = 32


def _oracle() -> CountingOracle:
    # Fixed constructor parameters: the maintained engine and the rebuilt
    # twin must answer under the *same* constraint, so the constraint may
    # not be derived from either side's dataset.
    return CountingOracle(
        ProportionalOracle("race", "African-American", 0.3, max_fraction=0.60)
    )


def _dataset(n: int):
    return make_compas_like(n=n, seed=DATASET_SEED).project(
        ["c_days_from_compas", "juv_other_count"]
    )


def _delta(dataset) -> DatasetDelta:
    """A small mixed delta: 3 inserts, 2 deletes, 1 update."""
    rng = np.random.default_rng(DELTA_SEED)
    inserts = tuple(
        tuple(float(value) for value in row)
        for row in rng.random((3, dataset.n_attributes)) + 0.01
    )
    insert_types = {
        attribute: tuple(rng.choice(np.asarray(column), size=3))
        for attribute, column in dataset.types.items()
    }
    update_row = tuple(float(value) for value in rng.random(dataset.n_attributes) + 0.01)
    return DatasetDelta(
        inserts=inserts,
        insert_types=insert_types,
        deletes=(1, 5),
        updates=((7, update_row),),
    )


def compare_maintenance(n: int) -> dict:
    """Time apply_delta vs full rebuild at one dataset size, proving identity."""
    config = TwoDConfig(staleness_fraction=1.0)
    dataset = _dataset(n)

    engine = create_engine(dataset, _oracle(), config)
    start = time.perf_counter()
    engine.preprocess()
    base_seconds = time.perf_counter() - start

    delta = _delta(dataset)
    start = time.perf_counter()
    report = engine.apply_delta(delta)
    incremental_seconds = time.perf_counter() - start
    if report.strategy != "incremental":
        raise AssertionError(f"expected the incremental path, got {report.as_dict()}")

    fresh = create_engine(delta.apply(_dataset(n)), _oracle(), config)
    start = time.perf_counter()
    fresh.preprocess()
    rebuild_seconds = time.perf_counter() - start

    # The bit-identity proof: answers, oracle-call budgets, payload bytes.
    assert_engines_equivalent(
        engine, fresh, make_weight_grid(N_QUERIES, dataset.n_attributes, seed=3)
    )

    return {
        "n": n,
        "n_changes": delta.n_changes,
        "staleness_fraction": delta.staleness_fraction(n),
        "base_preprocess_seconds": base_seconds,
        "incremental_seconds": incremental_seconds,
        "rebuild_seconds": rebuild_seconds,
        "speedup": rebuild_seconds / incremental_seconds
        if incremental_seconds > 0
        else float("inf"),
        "strategy": report.strategy,
        "bit_identical": True,
        "maintenance": report.as_dict(),
    }


def run_grid(n_values=DEFAULT_N_VALUES) -> dict:
    results = [compare_maintenance(n) for n in n_values]
    return {
        "benchmark": "incremental_maintenance",
        "workload": f"make_compas_like(seed={DATASET_SEED}) projected to 2 attributes, "
        "FM1 (<= 60% African-American in top 30%); mixed delta of "
        "3 inserts + 2 deletes + 1 update",
        "incremental_path": "QueryEngine.apply_delta: remap the cached exchange "
        "arrays, re-derive only pairs touching changed items, re-sweep",
        "rebuild_path": "create_engine(...).preprocess() on the mutated dataset",
        "generated_unix_time": time.time(),
        "results": results,
    }


def test_incremental_maintenance_identical_and_not_slower(benchmark, once):
    """Reduced-size pytest entry: apply_delta is bit-identical to a rebuild.

    The oracle-driven sector sweep re-runs in full after any delta (verdicts
    are data-dependent), so the incremental win is confined to the geometry
    stages and is modest at small n — the timing assertion is a generous
    not-much-slower bound, while the bit-identity assertion is exact.
    """
    payload = once(benchmark, run_grid, n_values=(500,))
    print("\n[perf] apply_delta vs full rebuild (2-D engine)")
    for row in payload["results"]:
        print(
            f"  n={row['n']}: rebuild {row['rebuild_seconds']:.3f}s -> "
            f"incremental {row['incremental_seconds']:.3f}s ({row['speedup']:.1f}x)"
        )
    for row in payload["results"]:
        assert row["bit_identical"]
        assert row["strategy"] == "incremental"
        assert row["incremental_seconds"] <= 1.5 * row["rebuild_seconds"]


def main() -> None:
    payload = run_grid()
    output = write_bench_record(
        "BENCH_incremental.json",
        payload,
        parameters={
            "n_values": list(DEFAULT_N_VALUES),
            "dataset_seed": DATASET_SEED,
            "delta_seed": DELTA_SEED,
            "n_queries": N_QUERIES,
        },
        repeat_policy="single timed run per (path, n); bit-identity asserted "
        "on every run before timings are reported",
    )
    for row in payload["results"]:
        print(
            f"n={row['n']}: base {row['base_preprocess_seconds']:.3f}s, "
            f"incremental {row['incremental_seconds']:.3f}s, "
            f"rebuild {row['rebuild_seconds']:.3f}s, "
            f"speedup {row['speedup']:.1f}x, strategy={row['strategy']}, "
            f"bit_identical={row['bit_identical']}"
        )
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
