"""Incremental maintenance benchmark: ``apply_delta`` vs full rebuild.

Times the maintenance seam on the two engine families that maintain their
index incrementally, against preprocessing a fresh engine from scratch on the
mutated dataset:

* ``2d`` — a small mixed insert/delete/update delta, which
  :meth:`~repro.core.engine.QueryEngine.apply_delta` handles by re-sweeping
  only the exchange pairs touching changed items;
* ``exact`` — an insert-only delta on an uncapped engine, which extends the
  cached arrangement tree with the inserted items' hyperplanes and
  re-evaluates its regions.

(The approximate grid always rebuilds, so it has no incremental path to time.)
Every (family, n) pair is timed ``REPEATS`` times, each on a freshly
preprocessed engine, and the median, minimum and maximum are reported.  Every
run *asserts* the maintained engine is bit-identical to the rebuild — same
answer fingerprints, same oracle-call budget, same persisted payload bytes —
via the shared :mod:`differential` harness, before its timings count.

Run standalone to regenerate the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_incremental.py

which writes ``BENCH_incremental.json`` at the repository root (2-D at
n ∈ {500, 2000}, exact at n = 12).  The pytest entry point runs one repeat
at reduced sizes so the benchmark suite stays quick; the bit-identity
invariant is also guarded by the ``dynamic``-marked tier-1 tests in
``tests/test_dynamic_equivalence.py``.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np
from _results import REPO_ROOT, write_bench_record

sys.path.insert(0, str(REPO_ROOT / "tests"))

from differential import assert_engines_equivalent, make_weight_grid  # noqa: E402

from repro.core.engine import ExactConfig, TwoDConfig, create_engine  # noqa: E402
from repro.core.maintenance import DatasetDelta  # noqa: E402
from repro.data.synthetic import make_compas_like  # noqa: E402
from repro.fairness.oracle import CountingOracle  # noqa: E402
from repro.fairness.proportional import ProportionalOracle  # noqa: E402

ATTRIBUTES = ["c_days_from_compas", "juv_other_count", "start"]
DEFAULT_TWO_D_N_VALUES = (500, 2000)
DEFAULT_EXACT_N_VALUES = (12,)
#: Dataset and delta seeds per family: the exact rows at n = 12 reproduce
#: ``tests/test_dynamic_equivalence.py::TestFamilies::test_exact_insert_only_incremental``.
DATASET_SEEDS = {"2d": 5, "exact": 2}
DELTA_SEEDS = {"2d": 7, "exact": 1}
N_QUERIES = 32
REPEATS = 3

#: Per family: the scoring dimension, the engine config, and the delta shape.
FAMILIES = {
    "2d": (2, TwoDConfig(), "mixed delta of 3 inserts + 2 deletes + 1 update"),
    "exact": (3, ExactConfig(), "insert-only delta of 2 inserts"),
}


def _oracle() -> CountingOracle:
    # Fixed constructor parameters: the maintained engine and the rebuilt
    # twin must answer under the *same* constraint, so the constraint may
    # not be derived from either side's dataset.
    return CountingOracle(
        ProportionalOracle("race", "African-American", 0.3, max_fraction=0.60)
    )


def _dataset(family: str, n: int):
    dimension = FAMILIES[family][0]
    return make_compas_like(n=n, seed=DATASET_SEEDS[family]).project(ATTRIBUTES[:dimension])


def _delta(family: str, dataset) -> DatasetDelta:
    """A small mixed delta for 2-D; two inserts for exact (its incremental shape)."""
    rng = np.random.default_rng(DELTA_SEEDS[family])
    n_inserts = 3 if family == "2d" else 2
    inserts = tuple(
        tuple(float(value) for value in row)
        for row in rng.random((n_inserts, dataset.n_attributes)) + 0.01
    )
    insert_types = {
        attribute: tuple(rng.choice(np.asarray(column), size=n_inserts))
        for attribute, column in dataset.types.items()
    }
    if family != "2d":
        return DatasetDelta(inserts=inserts, insert_types=insert_types)
    update_row = tuple(float(value) for value in rng.random(dataset.n_attributes) + 0.01)
    return DatasetDelta(
        inserts=inserts,
        insert_types=insert_types,
        deletes=(1, 5),
        updates=((7, update_row),),
    )


def _timed(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def _spread(seconds: list[float]) -> dict:
    return {
        "median": statistics.median(seconds),
        "min": min(seconds),
        "max": max(seconds),
        "runs": seconds,
    }


def compare_maintenance(family: str, n: int, repeats: int = REPEATS) -> dict:
    """Time apply_delta vs full rebuild ``repeats`` times, proving identity each run."""
    dimension, config, delta_shape = FAMILIES[family]
    delta = _delta(family, _dataset(family, n))
    timings: dict[str, list[float]] = {"base": [], "incremental": [], "rebuild": []}
    for _ in range(repeats):
        engine = create_engine(_dataset(family, n), _oracle(), config)
        timings["base"].append(_timed(engine.preprocess))
        start = time.perf_counter()
        report = engine.apply_delta(delta)
        timings["incremental"].append(time.perf_counter() - start)
        if report.strategy != "incremental":
            raise AssertionError(f"expected the incremental path, got {report.as_dict()}")

        fresh = create_engine(delta.apply(_dataset(family, n)), _oracle(), config)
        timings["rebuild"].append(_timed(fresh.preprocess))

        # The bit-identity proof: answers, oracle-call budgets, payload bytes.
        assert_engines_equivalent(
            engine, fresh, make_weight_grid(N_QUERIES, dimension, seed=3)
        )

    incremental, rebuild = timings["incremental"], timings["rebuild"]
    return {
        "family": family,
        "n": n,
        "delta": delta_shape,
        "n_changes": delta.n_changes,
        "staleness_fraction": delta.staleness_fraction(n),
        "repeats": repeats,
        "base_preprocess_seconds": _spread(timings["base"]),
        "incremental_seconds": _spread(incremental),
        "rebuild_seconds": _spread(rebuild),
        "speedup": statistics.median(rebuild) / statistics.median(incremental),
        "speedup_per_run": [full / fast for fast, full in zip(incremental, rebuild)],
        "strategy": report.strategy,
        "bit_identical": True,
        "maintenance": report.as_dict(),
    }


def run_grid(
    two_d_n_values=DEFAULT_TWO_D_N_VALUES,
    exact_n_values=DEFAULT_EXACT_N_VALUES,
    repeats: int = REPEATS,
) -> dict:
    results = [compare_maintenance("2d", n, repeats) for n in two_d_n_values]
    results += [compare_maintenance("exact", n, repeats) for n in exact_n_values]
    return {
        "benchmark": "incremental_maintenance",
        "workload": "FM1 (<= 60% African-American in top 30%); 2d: "
        f"make_compas_like(seed={DATASET_SEEDS['2d']}) projected to 2 attributes, "
        f"{FAMILIES['2d'][2]}; exact: make_compas_like(seed={DATASET_SEEDS['exact']}) "
        f"projected to 3 attributes, uncapped ExactConfig(), {FAMILIES['exact'][2]}",
        "incremental_path": "QueryEngine.apply_delta. 2d: remap the cached exchange "
        "arrays, re-derive only pairs touching changed items, re-sweep. exact: insert "
        "the new items' hyperplanes into the cached arrangement tree, re-evaluate "
        "its regions",
        "rebuild_path": "create_engine(...).preprocess() on the mutated dataset",
        "results": results,
    }


def test_incremental_maintenance_identical_and_not_slower(benchmark, once):
    """Reduced-size pytest entry: apply_delta is bit-identical to a rebuild.

    The oracle-driven stages re-run in full after any delta (verdicts are
    data-dependent), so the incremental win is confined to the geometry
    stages and is modest at small n — the timing assertion is a generous
    not-much-slower bound, while the bit-identity assertion is exact.
    """
    payload = once(
        benchmark, run_grid, two_d_n_values=(500,), exact_n_values=(8,), repeats=1
    )
    print("\n[perf] apply_delta vs full rebuild")
    for row in payload["results"]:
        print(
            f"  {row['family']} n={row['n']}: rebuild "
            f"{row['rebuild_seconds']['median']:.3f}s -> incremental "
            f"{row['incremental_seconds']['median']:.3f}s ({row['speedup']:.1f}x)"
        )
    for row in payload["results"]:
        assert row["bit_identical"]
        assert row["strategy"] == "incremental"
        assert row["incremental_seconds"]["median"] <= 1.5 * row["rebuild_seconds"]["median"]


def main() -> None:
    payload = run_grid()
    output = write_bench_record(
        "BENCH_incremental.json",
        payload,
        parameters={
            "two_d_n_values": list(DEFAULT_TWO_D_N_VALUES),
            "exact_n_values": list(DEFAULT_EXACT_N_VALUES),
            "dataset_seeds": DATASET_SEEDS,
            "delta_seeds": DELTA_SEEDS,
            "n_queries": N_QUERIES,
            "repeats": REPEATS,
        },
        repeat_policy=f"{REPEATS} timed runs per (family, path, n), each on a freshly "
        "preprocessed engine; median, min and max reported, speedup = median rebuild "
        "/ median incremental; bit-identity asserted on every run",
    )
    for row in payload["results"]:
        print(
            f"{row['family']} n={row['n']}: base "
            f"{row['base_preprocess_seconds']['median']:.3f}s, incremental "
            f"{row['incremental_seconds']['median']:.3f}s, rebuild "
            f"{row['rebuild_seconds']['median']:.3f}s, speedup {row['speedup']:.2f}x "
            f"(per run {min(row['speedup_per_run']):.2f}-"
            f"{max(row['speedup_per_run']):.2f}x), strategy={row['strategy']}, "
            f"bit_identical={row['bit_identical']}"
        )
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
