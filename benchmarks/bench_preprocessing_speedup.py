"""Old-vs-new 2-D preprocessing benchmark: vectorized + incremental sweep.

Times the seed implementation (scalar per-pair exchange construction +
black-box per-sector oracle evaluation, the route a
:class:`~repro.fairness.oracle.CallableOracle` takes) against the rebuilt hot path
(broadcast exchange kernel + the array sweep kernel over the
incremental-oracle protocol) on COMPAS-like synthetic data, asserting the
outputs are *identical* — same satisfactory intervals, same exchange counts,
same oracle-call accounting — while the wall-clock drops.  A third column
times the per-swap loop (the same sweep with the array kernel declined), so
the record also shows what the array kernel itself buys.

Run standalone to regenerate the machine-readable trajectory consumed by
future perf PRs::

    PYTHONPATH=src python benchmarks/bench_preprocessing_speedup.py

which writes ``BENCH_preprocessing.json`` at the repository root with the
full n ∈ {200, 500, 1000} grid.  The pytest entry point runs a reduced grid
so the benchmark suite stays quick; the equivalence itself is also guarded by
the ``perf_smoke``-marked tier-1 tests in ``tests/test_incremental_oracle.py``.
"""

from __future__ import annotations

import sys
import time

from _results import REPO_ROOT, write_bench_record

sys.path.insert(0, str(REPO_ROOT / "tests"))

from reference.exchanges import build_exchange_angles_2d_reference  # noqa: E402

from repro.core.two_dim import TwoDRaySweep  # noqa: E402
from repro.data.synthetic import make_compas_like  # noqa: E402
from repro.fairness.oracle import CallableOracle, CountingOracle  # noqa: E402
from repro.fairness.proportional import ProportionalOracle  # noqa: E402

DEFAULT_N_VALUES = (200, 500, 1000)


def _workload(n: int):
    dataset = make_compas_like(n=n, seed=5).project(
        ["c_days_from_compas", "juv_other_count"]
    )
    oracle = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.10
    )
    return dataset, oracle


class _PerSwapOracle(CountingOracle):
    """A counting wrapper whose ``verdict`` override sends the sweep down the per-swap loop."""

    def verdict(self) -> bool:
        return super().verdict()


def compare_preprocessing(n: int) -> dict:
    """Time seed-path vs per-swap loop vs array-kernel 2DRAYSWEEP at one dataset size."""
    dataset, oracle = _workload(n)
    reference_oracle = CountingOracle(oracle)
    loop_oracle = _PerSwapOracle(oracle)
    fast_oracle = CountingOracle(oracle)

    start = time.perf_counter()
    reference = TwoDRaySweep(
        dataset,
        CallableOracle(reference_oracle.is_satisfactory),
        exchange_builder=build_exchange_angles_2d_reference,
    ).run()
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    loop = TwoDRaySweep(dataset, loop_oracle).run()
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fast = TwoDRaySweep(dataset, fast_oracle).run()
    fast_seconds = time.perf_counter() - start

    def intervals(index) -> list[tuple[str, str]]:
        return [(iv.start.hex(), iv.end.hex()) for iv in index.intervals]

    return {
        "n": n,
        "reference_seconds": reference_seconds,
        "loop_seconds": loop_seconds,
        "vectorized_seconds": fast_seconds,
        "speedup": reference_seconds / fast_seconds if fast_seconds > 0 else float("inf"),
        "speedup_vs_loop": loop_seconds / fast_seconds if fast_seconds > 0 else float("inf"),
        "ordering_exchanges": fast.n_exchanges,
        "oracle_calls_reference": reference_oracle.calls,
        "oracle_calls_loop": loop_oracle.calls,
        "oracle_calls_vectorized": fast_oracle.calls,
        "oracle_calls_equal": reference_oracle.calls == loop_oracle.calls == fast_oracle.calls,
        "intervals": len(fast.intervals),
        "intervals_equal": intervals(reference) == intervals(loop) == intervals(fast),
    }


def run_grid(n_values=DEFAULT_N_VALUES) -> dict:
    results = [compare_preprocessing(n) for n in n_values]
    return {
        "benchmark": "2d_preprocessing_speedup",
        "workload": "make_compas_like(seed=5) projected to 2 attributes, "
        "FM1 (<= share+10% African-American in top 30%)",
        "reference_path": "scalar per-pair exchange construction + black-box per-sector oracle",
        "loop_path": "broadcast exchange kernel + per-swap incremental-oracle loop",
        "vectorized_path": "broadcast exchange kernel + array sweep kernel (sweep_verdicts)",
        "generated_unix_time": time.time(),
        "results": results,
    }


def test_preprocessing_speedup_and_equivalence(benchmark, once):
    """Reduced-grid pytest entry: new path is equivalent and clearly faster."""
    payload = once(benchmark, run_grid, n_values=(100, 200))
    print("\n[perf] 2D preprocessing old-vs-new")
    for row in payload["results"]:
        print(
            f"  n={row['n']}: {row['reference_seconds']:.3f}s -> "
            f"{row['vectorized_seconds']:.3f}s ({row['speedup']:.1f}x)"
        )
    for row in payload["results"]:
        assert row["intervals_equal"]
        assert row["oracle_calls_equal"]
    # Modest bound at the reduced scale; the committed BENCH_preprocessing.json
    # records the full-grid speedups (>= 10x at n=1000).
    assert payload["results"][-1]["speedup"] >= 3.0


def main() -> None:
    payload = run_grid()
    output = write_bench_record(
        "BENCH_preprocessing.json",
        payload,
        parameters={"n_values": list(DEFAULT_N_VALUES), "dimension": 2, "seed": 5},
        repeat_policy="single timed run per path per n, reference, loop and "
        "vectorized interleaved",
    )
    for row in payload["results"]:
        print(
            f"n={row['n']}: reference {row['reference_seconds']:.3f}s, "
            f"loop {row['loop_seconds']:.3f}s, "
            f"vectorized {row['vectorized_seconds']:.3f}s, "
            f"speedup {row['speedup']:.1f}x ({row['speedup_vs_loop']:.1f}x vs loop), "
            f"intervals_equal={row['intervals_equal']}, "
            f"oracle_calls_equal={row['oracle_calls_equal']}"
        )
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
