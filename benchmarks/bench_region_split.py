"""Stage split of d = 3 preprocessing: centres from the region polygons vs the centring LP.

At ``d = 3`` a :class:`~repro.geometry.hyperplane.Region` answers its split
and emptiness tests from its convex polygon whenever the vertex values make
the answer certain, and takes its Chebyshev centre — the representative
point the oracle judges — from the polygon as well.  This benchmark
preprocesses the roadmap's two reference cases on that route and on the
route before it, where every centre is a HiGHS linear program (the
``lp_centres`` patch of ``tests/differential.py``):

* ``approximate`` — ``ApproxConfig(n_cells=64, max_hyperplanes=150)`` at
  n = 600, where ``MARKCELL``'s per-cell arrangements dominate;
* ``exact`` — ``ExactConfig(max_hyperplanes=30)`` at n = 100 (``SATREGIONS``).

For each run it records the preprocess wall time, the time of every stage
span directly under the preprocess (and the unattributed rest), the LP
solves of each kind and their time per stage, and the region split tests.
The LP solves and split tests are counted by perfbench's call-site meter
(``perfbench.meter.patched_call_sites``), which opens one span per call so
each lands in the stage it ran under.  The centres move by round-off, so the
same run *asserts* what the change keeps, before its timings count: the same
marked cells or satisfactory regions, the same preprocessing and online
oracle calls, every representative in the same arrangement region, and
every suggestion over a weight grid passing the raw oracle.

Run standalone to regenerate the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_region_split.py

which writes ``BENCH_region_split.json`` at the repository root (about
15 seconds on two cores).  The pytest entry point runs both cases at reduced
sizes; the LP-centre differential is also guarded by the ``perf_smoke``-marked
tier-1 tests in ``tests/test_region_polygon.py``.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from contextlib import nullcontext

import numpy as np
from _results import REPO_ROOT, write_bench_record

sys.path[:0] = [str(REPO_ROOT / "tests"), str(REPO_ROOT)]

from differential import (  # noqa: E402
    lp_centres,
    make_weight_grid,
    region_geometry,
    representative_sign_vectors,
)

from perfbench.meter import LP_CALL_SITES, patched_call_sites  # noqa: E402

from repro.core.engine import ApproxConfig, ExactConfig, create_engine  # noqa: E402
from repro.core.multi_dim import exchange_hyperplanes  # noqa: E402
from repro.data.synthetic import COMPAS_SCORING_ATTRIBUTES, make_compas_like  # noqa: E402
from repro.fairness.oracle import CountingOracle  # noqa: E402
from repro.fairness.proportional import ProportionalOracle  # noqa: E402
from repro.obs.trace import TraceRecorder, activated  # noqa: E402

DATASET_SEED = 6
#: Preprocesses per (case, route), the two routes alternating.
REPEATS = 3
#: ``name -> (n, config, queries in the weight grid)``.
CASES = {
    "approximate": (600, ApproxConfig(n_cells=64, max_hyperplanes=150), 256),
    "exact": (100, ExactConfig(max_hyperplanes=30), 16),
}
REDUCED_CASES = {
    "approximate": (200, ApproxConfig(n_cells=16, max_hyperplanes=30), 64),
    "exact": (40, ExactConfig(max_hyperplanes=15), 8),
}
#: The two routes, the one before this change first.
ROUTES = {"lp_centres": lp_centres, "polygon": nullcontext}
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
    with ROUTES[route](), patched_call_sites(SITES, recorder) as meters, activated(recorder):
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


def assert_rebaseline(polygon, reference, config, n_queries: int) -> None:
    """What polygon centres keep of the LP centres' build, one engine of each."""
    assert polygon.oracle.calls == reference.oracle.calls
    assert region_geometry(polygon) == region_geometry(reference)
    planes = exchange_hyperplanes(polygon.dataset, config.max_hyperplanes)
    assert np.array_equal(
        representative_sign_vectors(polygon, planes),
        representative_sign_vectors(reference, planes),
    )
    grid = make_weight_grid(n_queries, 3, seed=DATASET_SEED)
    online_calls = []
    for engine in (polygon, reference):
        before = engine.oracle.calls
        results = engine.suggest_many(grid)
        online_calls.append(engine.oracle.calls - before)
        raw = engine.oracle.inner
        assert all(raw.evaluate_function(result.function, engine.dataset) for result in results)
    assert online_calls[0] == online_calls[1]


def compare_routes(name: str, cases=CASES, repeats: int = REPEATS) -> dict:
    """Both routes on one case, ``repeats`` times each, alternating.

    Every pair of builds is checked by :func:`assert_rebaseline` before its
    timings count; each route reports the run with its median wall time.
    """
    n, config, n_queries = cases[name]
    runs: dict[str, list[dict]] = {route: [] for route in ROUTES}
    for _ in range(repeats):
        engines = {}
        for route in ROUTES:
            engines[route] = _engine(n, config)
            runs[route].append(preprocess_split(engines[route], route))
        assert_rebaseline(engines["polygon"], engines["lp_centres"], config, n_queries)
    row = {"case": name, "n": n, "config": repr(config)}
    for route, route_runs in runs.items():
        seconds = [run["preprocess_seconds"] for run in route_runs]
        median = sorted(route_runs, key=lambda run: run["preprocess_seconds"])[len(seconds) // 2]
        row[route] = {**median, "preprocess_seconds_all": seconds}
    row["speedup"] = statistics.median(row["lp_centres"]["preprocess_seconds_all"]) / (
        statistics.median(row["polygon"]["preprocess_seconds_all"])
    )
    row["rebaseline_checked"] = True
    row["n_queries"] = n_queries
    return row


def run_grid(cases=CASES, repeats: int = REPEATS) -> dict:
    return {
        "benchmark": "region_split",
        "workload": f"make_compas_like(seed={DATASET_SEED}) projected to 3 attributes, "
        "FM1 (<= share+10% African-American in top 30%)",
        "polygon_route": "production: dimension-2 regions answer split and emptiness "
        "tests from their polygon when certain, else the LP, and take their Chebyshev "
        "centre from a solid polygon",
        "lp_centres_route": "the same split and emptiness tests, every Chebyshev centre "
        "through the centring LP (tests/differential.py lp_centres)",
        "rebaseline": "asserted per pair: same marked cells or satisfactory regions, "
        "same preprocessing and online oracle calls, representatives with the same sign "
        "vector over the build's hyperplanes, every suggestion passes the raw oracle",
        "results": [compare_routes(name, cases, repeats) for name in cases],
    }


def _print(payload: dict) -> None:
    for row in payload["results"]:
        for route in ROUTES:
            run = row[route]
            stages = ", ".join(
                f"{stage.removeprefix('preprocess.')} {data['seconds']:.3f}s"
                f" (LP {data['lp_seconds']:.3f}s)"
                for stage, data in run["stages"].items()
            )
            print(
                f"{row['case']} n={row['n']} {route}: {run['preprocess_seconds']:.3f}s, "
                f"LP solves {run['lp_solves']}, {run['split_tests']} split tests, "
                f"{run['oracle_calls']} oracle calls; {stages}"
            )
        print(f"  {row['case']}: {row['speedup']:.1f}x, rebaseline checked")


def test_polygon_centres_keep_the_regions_and_are_faster(benchmark, once):
    """Reduced-size pytest entry: no centre LP, the same split tests, and not slower."""
    payload = once(benchmark, run_grid, REDUCED_CASES, 1)
    _print(payload)
    for row in payload["results"]:
        assert row["rebaseline_checked"]
        polygon, reference = row["polygon"], row["lp_centres"]
        assert polygon["lp_solves"]["lp.chebyshev_center"] == 0
        assert reference["lp_solves"]["lp.chebyshev_center"] > 0
        assert polygon["split_tests"] == reference["split_tests"]
        assert row["speedup"] > 1.0


def main() -> None:
    payload = run_grid()
    output = write_bench_record(
        "BENCH_region_split.json",
        payload,
        parameters={
            "cases": {name: [n, repr(config), q] for name, (n, config, q) in CASES.items()},
            "dataset_seed": DATASET_SEED,
            "repeats": REPEATS,
            "cpu_count": os.cpu_count(),
        },
        repeat_policy=f"{REPEATS} preprocesses per (case, route), alternating, the LP-centre "
        "route first; each route reports the run with its median wall time, with its "
        "stage times read from that run's stage spans; speedup is the ratio of the "
        "medians; the re-baseline properties asserted on every pair",
    )
    _print(payload)
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
