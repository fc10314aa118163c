"""Scaling-vs-cores benchmark for the PR-9 parallel layer.

Three phases, each timed at worker counts 1, 2 and 4 with bit-identity
asserted against the serial path on every run:

* ``angles_2d`` — sharded 2-D exchange-angle enumeration
  (:func:`repro.parallel.preprocess.make_parallel_exchange_builder`), the
  pair-enumeration workload that dominates 2-D preprocessing at large n;
* ``hyperplanes`` — sharded exchange-hyperplane construction
  (:func:`repro.parallel.parallel_hyperplanes_for_dataset`), the
  multi-dimensional preprocessing kernel;
* ``serving`` — batch throughput of :class:`repro.parallel.PoolEngine` over
  a preprocessed approximate index.

Run standalone to regenerate the committed record::

    PYTHONPATH=src python benchmarks/bench_parallel.py            # full grid
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick    # small grid

which writes ``BENCH_parallel.json`` at the repository root through the
shared ``repro.bench/v1`` envelope.  ``parameters.cpu_count`` records how
many cores the run actually had: on a single-CPU container the speedup
columns honestly hover around (or below) 1.0× — the record then documents
IPC overhead, not parallel speedup, and should be regenerated on a
multi-core machine for the scaling claim.

The pytest entry runs a reduced grid and asserts only bit-identity and
record shape, never speed — wall-clock assertions on shared CI boxes are
flakiness generators.
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np
from _results import write_bench_record
from repro.core.engine import ApproxConfig, create_engine
from repro.data.synthetic import make_compas_like
from repro.fairness.proportional import ProportionalOracle
from repro.geometry.dual import exchange_arrays_2d, hyperplanes_for_dataset
from repro.parallel import PoolEngine, parallel_hyperplanes_for_dataset
from repro.parallel.preprocess import make_parallel_exchange_builder

WORKER_COUNTS = (1, 2, 4)

# angles_n is bounded by memory, not time: the exchanges are O(n^2) array rows
# (~1M per 2k items on COMPAS-like data), so n=5000 already moves ~6M rows per
# run while staying comfortably inside a small container.
FULL_SCALE = {"angles_n": 5_000, "hyperplanes_n": 500, "serving_n": 1_000, "batch": 240}
QUICK_SCALE = {"angles_n": 2_000, "hyperplanes_n": 120, "serving_n": 200, "batch": 48}

ATTRIBUTES = ["c_days_from_compas", "juv_other_count", "start"]


def _timed(function, *args, **kwargs):
    start = time.perf_counter()
    value = function(*args, **kwargs)
    return value, time.perf_counter() - start


def _scaling_rows(serial_seconds: float, runs: list[tuple[int, float, bool]]) -> list[dict]:
    return [
        {
            "n_workers": n_workers,
            "seconds": seconds,
            "speedup_vs_serial": serial_seconds / seconds if seconds > 0 else float("inf"),
            "identical_to_serial": identical,
        }
        for n_workers, seconds, identical in runs
    ]


def bench_angles_2d(n_items: int) -> dict:
    dataset = make_compas_like(n=n_items, seed=5).project(ATTRIBUTES[:2])
    serial, serial_seconds = _timed(exchange_arrays_2d, dataset)
    runs = []
    for n_workers in WORKER_COUNTS:
        parallel, seconds = _timed(make_parallel_exchange_builder(n_workers), dataset)
        identical = all(
            np.array_equal(left, right) for left, right in zip(parallel, serial)
        )
        runs.append((n_workers, seconds, identical))
    return {
        "phase": "angles_2d",
        "n_items": n_items,
        "n_exchanges": int(serial[0].size),
        "serial_seconds": serial_seconds,
        "workers": _scaling_rows(serial_seconds, runs),
    }


def bench_hyperplanes(n_items: int) -> dict:
    dataset = make_compas_like(n=n_items, seed=5).project(ATTRIBUTES)
    serial, serial_seconds = _timed(hyperplanes_for_dataset, dataset)
    runs = []
    for n_workers in WORKER_COUNTS:
        parallel, seconds = _timed(
            parallel_hyperplanes_for_dataset, dataset, n_workers=n_workers
        )
        runs.append((n_workers, seconds, parallel == serial))
    return {
        "phase": "hyperplanes",
        "n_items": n_items,
        "n_hyperplanes": len(serial),
        "serial_seconds": serial_seconds,
        "workers": _scaling_rows(serial_seconds, runs),
    }


def bench_serving(n_items: int, batch: int) -> dict:
    dataset = make_compas_like(n=n_items, seed=5).project(ATTRIBUTES)
    oracle = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.10
    )
    config = ApproxConfig(n_cells=256, max_hyperplanes=150)
    engine = create_engine(dataset, oracle, config).preprocess()
    rng = np.random.default_rng(2)
    grid = rng.random((batch, dataset.n_attributes))
    grid /= grid.sum(axis=1, keepdims=True)
    serial, serial_seconds = _timed(engine.suggest_many, grid)
    runs = []
    for n_workers in WORKER_COUNTS:
        with PoolEngine.from_engine(engine, n_workers=n_workers) as pool:
            pooled, seconds = _timed(pool.suggest_many, grid)
        runs.append((n_workers, seconds, pooled == serial))
    return {
        "phase": "serving",
        "n_items": n_items,
        "batch_queries": batch,
        "serial_seconds": serial_seconds,
        "serial_queries_per_second": batch / serial_seconds if serial_seconds > 0 else float("inf"),
        "workers": _scaling_rows(serial_seconds, runs),
    }


def run_grid(scale: dict) -> dict:
    return {
        "benchmark": "parallel_scaling",
        "workload": "make_compas_like(seed=5); FM1 (<= share+10% African-American "
        "in top 30%) for the serving phase",
        "phases": [
            bench_angles_2d(scale["angles_n"]),
            bench_hyperplanes(scale["hyperplanes_n"]),
            bench_serving(scale["serving_n"], scale["batch"]),
        ],
    }


def test_parallel_benchmark_shape_and_identity(benchmark, once):
    """Reduced-grid pytest entry: every phase stays bit-identical to serial."""
    payload = once(benchmark, run_grid, QUICK_SCALE)
    print("\n[perf] parallel scaling (reduced grid)")
    for phase in payload["phases"]:
        for row in phase["workers"]:
            print(
                f"  {phase['phase']} workers={row['n_workers']}: "
                f"{row['seconds']:.3f}s ({row['speedup_vs_serial']:.2f}x)"
            )
            assert row["identical_to_serial"]
    assert {phase["phase"] for phase in payload["phases"]} == {
        "angles_2d",
        "hyperplanes",
        "serving",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small grid, no record rewrite")
    args = parser.parse_args()
    scale = QUICK_SCALE if args.quick else FULL_SCALE
    payload = run_grid(scale)
    for phase in payload["phases"]:
        print(f"{phase['phase']} (serial {phase['serial_seconds']:.3f}s):")
        for row in phase["workers"]:
            print(
                f"  workers={row['n_workers']}: {row['seconds']:.3f}s "
                f"({row['speedup_vs_serial']:.2f}x, "
                f"identical={row['identical_to_serial']})"
            )
    if args.quick:
        print("quick run: BENCH_parallel.json not rewritten")
        return
    output = write_bench_record(
        "BENCH_parallel.json",
        payload,
        parameters={
            **FULL_SCALE,
            "worker_counts": list(WORKER_COUNTS),
            "cpu_count": os.cpu_count(),
            "seed": 5,
        },
        repeat_policy="single timed run per (phase, worker count); "
        "bit-identity asserted on every run",
    )
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
