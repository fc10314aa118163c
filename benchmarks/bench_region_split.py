"""Stage split of d = 3 preprocessing: the polygon route vs every test through the LP.

At ``d = 3`` a :class:`~repro.geometry.hyperplane.Region` answers its split
and emptiness tests from its convex polygon whenever the vertex values make
the answer certain, and runs the Eq. 6 linear program otherwise; Chebyshev
centres stay linear programs.  This benchmark preprocesses the roadmap's two
reference cases once on that route and once with every split and emptiness
test forced through the LP (the ``lp_only_regions`` patch of
``tests/differential.py``):

* ``approximate`` — ``ApproxConfig(n_cells=64, max_hyperplanes=150)`` at
  n = 600, where ``MARKCELL``'s per-cell arrangements dominate;
* ``exact`` — ``ExactConfig(max_hyperplanes=30)`` at n = 100 (``SATREGIONS``).

For each run it records the preprocess wall time, the time of every stage
span directly under the preprocess (and the unattributed rest), the LP
solves of each kind and their time per stage, and the region split tests.
The LP solves and split tests are counted by perfbench's call-site meter
(``perfbench.meter.patched_call_sites``), which opens one span per call so
each lands in the stage it ran under.  The same run
*asserts* the two routes are bit-identical — same answer fingerprints over a
weight grid, same oracle-call counts, same payload bytes — via the shared
:mod:`differential` harness, before its timings count.

Run standalone to regenerate the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_region_split.py

which writes ``BENCH_region_split.json`` at the repository root (about a
minute on two cores).  The pytest entry point runs both cases at reduced
sizes; the all-LP differential is also guarded by the ``perf_smoke``-marked
tier-1 tests in ``tests/test_region_polygon.py``.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import nullcontext

from _results import REPO_ROOT, write_bench_record

sys.path[:0] = [str(REPO_ROOT / "tests"), str(REPO_ROOT)]

from differential import (  # noqa: E402
    assert_engines_equivalent,
    lp_only_regions,
    make_weight_grid,
)

from perfbench.meter import LP_CALL_SITES, patched_call_sites  # noqa: E402

from repro.core.engine import ApproxConfig, ExactConfig, create_engine  # noqa: E402
from repro.data.synthetic import COMPAS_SCORING_ATTRIBUTES, make_compas_like  # noqa: E402
from repro.fairness.oracle import CountingOracle  # noqa: E402
from repro.fairness.proportional import ProportionalOracle  # noqa: E402
from repro.obs.trace import TraceRecorder, activated  # noqa: E402

DATASET_SEED = 6
#: ``name -> (n, config, queries in the bit-identity grid)``.
CASES = {
    "approximate": (600, ApproxConfig(n_cells=64, max_hyperplanes=150), 256),
    "exact": (100, ExactConfig(max_hyperplanes=30), 16),
}
REDUCED_CASES = {
    "approximate": (200, ApproxConfig(n_cells=16, max_hyperplanes=30), 64),
    "exact": (40, ExactConfig(max_hyperplanes=15), 8),
}
#: The metered call sites: the two LPs a region solves, and its split test.
SPLIT_TEST = "region.split_test"
SITES = LP_CALL_SITES + (
    ("repro.geometry.hyperplane:Region", "intersects_hyperplane", SPLIT_TEST, None),
)


def _engine(n: int, config):
    dataset = make_compas_like(n=n, seed=DATASET_SEED).project(
        list(COMPAS_SCORING_ATTRIBUTES[:3])
    )
    oracle = CountingOracle(
        ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
    )
    return create_engine(dataset, oracle, config)


def _stage_of(span, by_id, root_id) -> str:
    while span.parent_id != root_id:
        span = by_id[span.parent_id]
    return span.name


def preprocess_split(engine, route: str) -> dict:
    """Preprocess ``engine`` on one route and split its wall time by stage span."""
    recorder = TraceRecorder(max_spans=1_000_000)
    route_patch = lp_only_regions() if route == "all_lp" else nullcontext()
    with route_patch, patched_call_sites(SITES, recorder) as meters, activated(recorder):
        started = time.perf_counter()
        with recorder.span("preprocess"):
            engine.preprocess()
        wall = time.perf_counter() - started
    assert recorder.n_dropped == 0
    spans = recorder.spans
    (root,) = [span for span in spans if span.name == "preprocess"]
    by_id = {span.span_id: span for span in spans}
    lp_names = [name for _, _, name, _ in LP_CALL_SITES]
    stages = {
        span.name: {"seconds": span.duration, **dict(span.attributes)}
        for span in spans
        if span.parent_id == root.span_id
    }
    for stage in stages.values():
        stage.update({"lp_seconds": 0.0, **{name: 0 for name in lp_names}})
    for span in spans:
        if span.name in lp_names:
            stage = stages[_stage_of(span, by_id, root.span_id)]
            stage[span.name] += 1
            stage["lp_seconds"] += span.duration
    return {
        "route": route,
        "preprocess_seconds": wall,
        "stages": stages,
        "unattributed_seconds": root.duration - sum(s["seconds"] for s in stages.values()),
        "lp_solves": {name: meters[name].calls for name in lp_names},
        "lp_seconds": sum(meters[name].busy_s for name in lp_names),
        "split_tests": meters[SPLIT_TEST].calls,
        "oracle_calls": engine.oracle.calls,
    }


def compare_routes(name: str, cases=CASES) -> dict:
    """Both routes on one case, asserting bit-identity before the timings count."""
    n, config, n_queries = cases[name]
    engines, runs = [], []
    for route in ("polygon", "all_lp"):
        engine = _engine(n, config)
        runs.append(preprocess_split(engine, route))
        engines.append(engine)
    polygon, all_lp = runs
    assert polygon["oracle_calls"] == all_lp["oracle_calls"]
    # Answers, oracle-call counts and payload bytes, bit for bit.
    assert_engines_equivalent(*engines, make_weight_grid(n_queries, 3, seed=DATASET_SEED))
    return {
        "case": name,
        "n": n,
        "config": repr(config),
        "polygon": polygon,
        "all_lp": all_lp,
        "speedup": all_lp["preprocess_seconds"] / polygon["preprocess_seconds"],
        "bit_identical": True,
        "n_queries": n_queries,
    }


def run_grid(cases=CASES) -> dict:
    return {
        "benchmark": "region_split",
        "workload": f"make_compas_like(seed={DATASET_SEED}) projected to 3 attributes, "
        "FM1 (<= share+10% African-American in top 30%)",
        "polygon_route": "production: dimension-2 regions answer split and emptiness "
        "tests from their polygon when certain, else the LP",
        "all_lp_route": "every split and emptiness test through the Eq. 6 LP "
        "(tests/differential.py lp_only_regions)",
        "results": [compare_routes(name, cases) for name in cases],
    }


def _print(payload: dict) -> None:
    for row in payload["results"]:
        for route in ("polygon", "all_lp"):
            run = row[route]
            stages = ", ".join(
                f"{stage.removeprefix('preprocess.')} {data['seconds']:.2f}s"
                f" (LP {data['lp_seconds']:.2f}s)"
                for stage, data in run["stages"].items()
            )
            print(
                f"{row['case']} n={row['n']} {route}: {run['preprocess_seconds']:.2f}s, "
                f"LP solves {run['lp_solves']}, {run['split_tests']} split tests, "
                f"{run['oracle_calls']} oracle calls; {stages}"
            )
        print(f"  {row['case']}: {row['speedup']:.1f}x, bit_identical={row['bit_identical']}")


def test_region_split_is_identical_and_faster(benchmark, once):
    """Reduced-size pytest entry: the polygon route is bit-identical and not slower."""
    payload = once(benchmark, run_grid, REDUCED_CASES)
    _print(payload)
    for row in payload["results"]:
        assert row["bit_identical"]
        polygon, all_lp = row["polygon"], row["all_lp"]
        assert polygon["lp_solves"]["lp.feasible_point"] < all_lp["lp_solves"]["lp.feasible_point"]
        assert polygon["lp_solves"]["lp.chebyshev_center"] == all_lp["lp_solves"]["lp.chebyshev_center"]
        assert polygon["split_tests"] == all_lp["split_tests"]
        assert row["speedup"] > 1.0


def main() -> None:
    payload = run_grid()
    output = write_bench_record(
        "BENCH_region_split.json",
        payload,
        parameters={
            "cases": {name: [n, repr(config), q] for name, (n, config, q) in CASES.items()},
            "dataset_seed": DATASET_SEED,
            "cpu_count": os.cpu_count(),
        },
        repeat_policy="one preprocess per (case, route), polygon route first; "
        "stage times read from the stage spans of that same run; bit-identity "
        "(answers, oracle calls, payload bytes) asserted on every case",
    )
    _print(payload)
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
