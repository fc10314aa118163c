"""Scalar-vs-batched d >= 3 exchange-hyperplane construction benchmark.

Times the scalar HYPERPOLAR route (one nullspace + one linear solve per pair)
against the batched :func:`~repro.geometry.dual.hyperpolar_many` kernel (one
stacked SVD over the ``(m, 1, d)`` normal stack and one batched
``np.linalg.solve`` over the ``(m, d-1, d-1)`` angle matrices) on uniform
synthetic data, asserting the two construct *identical* hyperplanes —
bit-for-bit equal coefficients and the same pair labels — while the
wall-clock drops.

Run standalone to regenerate the machine-readable trajectory consumed by
future perf PRs::

    PYTHONPATH=src python benchmarks/bench_hyperpolar_batch.py

which writes ``BENCH_hyperpolar_batch.json`` at the repository root with the
full n = 300, d in {3, 4, 5} grid.  The pytest entry point runs a reduced
grid so the benchmark suite stays quick; the bit-identity itself is also
guarded by the ``perf_smoke``-marked tier-1 tests in ``tests/test_dual.py``.
"""

from __future__ import annotations

import time

from _results import write_bench_record

from repro.data.dominance import iter_exchange_pair_chunks
from repro.data.synthetic import make_uniform_dataset
from repro.geometry.dual import _hyperpolar_unchecked, hyperplanes_for_dataset

DEFAULT_GRID = ((300, 3), (300, 4), (300, 5))


def scalar_hyperplanes(dataset) -> list:
    """Per-pair HYPERPOLAR over the same vectorised pair enumeration as the batched path.

    Only the per-pair construction differs from :func:`hyperplanes_for_dataset`,
    so the two columns time exactly the kernel the batch replaces.
    """
    scores = dataset.scores
    return [
        _hyperpolar_unchecked(scores[i], scores[j], (i, j))
        for pairs in iter_exchange_pair_chunks(scores)
        for i, j in pairs.tolist()
    ]


def compare_construction(n: int, d: int, seed: int = 11) -> dict:
    """Time scalar vs batched hyperplane construction at one (n, d) point."""
    dataset = make_uniform_dataset(n=n, d=d, seed=seed)

    start = time.perf_counter()
    scalar = scalar_hyperplanes(dataset)
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = hyperplanes_for_dataset(dataset)
    batched_seconds = time.perf_counter() - start

    return {
        "n": n,
        "d": d,
        "hyperplanes": len(batched),
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "speedup": scalar_seconds / batched_seconds if batched_seconds > 0 else float("inf"),
        "hyperplanes_identical": scalar == batched,
    }


def run_grid(grid=DEFAULT_GRID) -> dict:
    results = [compare_construction(n, d) for n, d in grid]
    return {
        "benchmark": "hyperpolar_batch_speedup",
        "workload": "make_uniform_dataset(seed=11), all non-dominated pairs",
        "scalar_path": "per-pair nullspace SVD + per-pair np.linalg.solve (reference)",
        "batched_path": "hyperpolar_many: one stacked SVD + one batched solve over all pairs",
        "generated_unix_time": time.time(),
        "results": results,
    }


def test_hyperpolar_batch_speedup_and_identity(benchmark, once):
    """Reduced-grid pytest entry: batched path is bit-identical and clearly faster."""
    payload = once(benchmark, run_grid, grid=((120, 3), (120, 4)))
    print("\n[perf] d>=3 hyperplane construction scalar-vs-batched")
    for row in payload["results"]:
        print(
            f"  n={row['n']} d={row['d']}: {row['scalar_seconds']:.3f}s -> "
            f"{row['batched_seconds']:.3f}s ({row['speedup']:.1f}x)"
        )
    for row in payload["results"]:
        assert row["hyperplanes_identical"]
    # Modest bound at the reduced scale; the committed BENCH_hyperpolar_batch.json
    # records the full-grid speedups (>= 5x required at n=300, d=4).
    assert payload["results"][-1]["speedup"] >= 3.0


def main() -> None:
    payload = run_grid()
    output = write_bench_record(
        "BENCH_hyperpolar_batch.json",
        payload,
        parameters={"grid": [list(point) for point in DEFAULT_GRID], "seed": 11},
        repeat_policy="single timed run per path per (n, d), scalar and "
        "batched interleaved",
    )
    for row in payload["results"]:
        print(
            f"n={row['n']} d={row['d']}: scalar {row['scalar_seconds']:.3f}s, "
            f"batched {row['batched_seconds']:.3f}s, speedup {row['speedup']:.1f}x, "
            f"identical={row['hyperplanes_identical']}"
        )
    assert all(row["hyperplanes_identical"] for row in payload["results"])
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
