"""``MDBASELINE`` at d = 3: the polygon route vs one SLSQP solve per region.

At ``d = 3`` the exact engine finds each satisfactory region's point nearest
an unsatisfactory query from the region polygons, in one vectorised pass
over their edges; at ``d >= 4`` (and for a degenerate polygon) it solves one
SLSQP minimisation per region.  This benchmark answers the same
unsatisfactory queries on both routes — the SLSQP route forced by the
``slsqp_only_regions`` patch of ``tests/differential.py`` — on five seeded
cases (COMPAS-like data, FM1: at most the African-American share + 10% in
the top 30%):

* ``exact3d`` — perfbench's exact3d configuration (n = 100, dataset seed 3,
  ``ExactConfig(max_hyperplanes=20)``);
* ``reference`` — the roadmap's exact reference case (n = 100, dataset
  seed 6, ``ExactConfig(max_hyperplanes=30)``);
* three more grids for the answer checks.

For each case and route it records the per-query latency (p50, p90, p99,
mean), the time split by the stage spans ``query.precheck``,
``query.region_distances`` and ``query.blend_verification`` (plus the
unattributed rest), and the ``minimize``, LP and online oracle-call counts
(perfbench's call-site meter counts the solves).  Across the routes it
records the largest per-region gap (polygon distance minus SLSQP's), how
many suggestions got closer or farther, and the mean suggestion distances.
The same run *asserts*, before its timings count, that every polygon-route
suggestion passes the raw oracle, that no region's polygon point is more
than 1e-7 rad farther than SLSQP's, and that the mean suggestion distance
is at most SLSQP's plus 1e-6.

Run standalone to regenerate the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_md_baseline.py

which writes ``BENCH_md_baseline.json`` at the repository root (about three
minutes on two cores, nearly all of it the SLSQP route).  The pytest entry
point runs two reduced cases; ``tests/test_multi_dim.py::TestPolygonRoute``
guards the same checks in tier-1.
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

from differential import slsqp_only_regions  # noqa: E402

from perfbench.meter import CALL_SITES, patched_call_sites  # noqa: E402

import repro.core.multi_dim as multi_dim  # noqa: E402
from repro.core.engine import ExactConfig, create_engine  # noqa: E402
from repro.data.synthetic import COMPAS_SCORING_ATTRIBUTES, make_compas_like  # noqa: E402
from repro.fairness.oracle import CountingOracle  # noqa: E402
from repro.fairness.proportional import ProportionalOracle  # noqa: E402
from repro.obs.trace import TraceRecorder, activated  # noqa: E402
from repro.ranking.queries import random_queries  # noqa: E402

#: ``name -> (n, dataset seed, hyperplane cap, unsatisfactory queries)``.
CASES = {
    "exact3d": (100, 3, 20, 100),
    "reference": (100, 6, 30, 100),
    "n60-seed6-cap20": (60, 6, 20, 100),
    "n100-seed11-cap20": (100, 11, 20, 100),
    "n40-seed21-cap20": (40, 21, 20, 100),
}
REDUCED_CASES = {"exact3d": (100, 3, 20, 12), "reference": (100, 6, 30, 8)}
#: Queries are drawn from this seed; the first unsatisfactory ones are kept.
QUERY_SEED = 19
REPEATS = 3
ROUTES = ("polygon", "slsqp")
STAGES = ("query.precheck", "query.region_distances", "query.blend_verification")
#: The metered call sites: the two region LPs and the SLSQP solve.
SITES = tuple(site for site in CALL_SITES if site[2].startswith(("lp.", "multi_dim.")))
REGION_GAP_BOUND = 1e-7
MEAN_GAP_BOUND = 1e-6
#: Suggestion moves within this distance are round-off between two routes
#: that reach the same point; the record counts the larger ones apart.
MOVE_TOLERANCE = 1e-7


def _engine(n: int, seed: int, cap: int):
    dataset = make_compas_like(n=n, seed=seed).project(list(COMPAS_SCORING_ATTRIBUTES[:3]))
    oracle = CountingOracle(
        ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
    )
    return create_engine(dataset, oracle, ExactConfig(max_hyperplanes=cap)).preprocess()


def _unsatisfactory_queries(engine, count: int) -> list:
    queries = [
        query
        for query in random_queries(3, 20 * count, seed=QUERY_SEED)
        if not engine.oracle.inner.evaluate_function(query, engine.dataset)
    ]
    assert len(queries) >= count
    return queries[:count]


def _percentile(values: list[float], share: float) -> float:
    return float(np.percentile(np.asarray(values), share))


def answer_on_route(engine, queries: list, route: str) -> dict:
    """One pass over ``queries``: answers, per-region candidates, spans, latencies, counts."""
    recorder = TraceRecorder(max_spans=1_000_000)
    candidates: list = []
    record = multi_dim._region_candidates

    def recording(index, query_angles):
        found = record(index, query_angles)
        candidates.append(found[0])
        return found

    multi_dim._region_candidates = recording
    route_patch = slsqp_only_regions() if route == "slsqp" else nullcontext()
    calls_before = engine.oracle.calls
    latencies, results = [], []
    try:
        with route_patch, patched_call_sites(SITES) as meters, activated(recorder):
            for query in queries:
                started = time.perf_counter()
                with recorder.span("op.suggest"):
                    results.append(engine.suggest(query))
                latencies.append(time.perf_counter() - started)
    finally:
        multi_dim._region_candidates = record
    assert recorder.n_dropped == 0
    spans = recorder.spans
    operations = {span.span_id for span in spans if span.name == "op.suggest"}
    stage_seconds = {name: 0.0 for name in STAGES}
    for span in spans:
        if span.parent_id in operations:
            stage_seconds[span.name] += span.duration
    operation_seconds = sum(span.duration for span in spans if span.span_id in operations)
    return {
        "results": results,
        "candidates": candidates,
        "latencies": latencies,
        "stage_seconds": stage_seconds,
        "unattributed_seconds": operation_seconds - sum(stage_seconds.values()),
        "minimize_calls": meters["multi_dim.minimize"].calls,
        "lp_solves": meters["lp.feasible_point"].calls + meters["lp.chebyshev_center"].calls,
        "oracle_calls": engine.oracle.calls - calls_before,
    }


def compare_routes(name: str, cases=CASES, repeats: int = REPEATS) -> dict:
    """Both routes on one case; the answer checks are asserted before timings count."""
    n, seed, cap, count = cases[name]
    engine = _engine(n, seed, cap)
    queries = _unsatisfactory_queries(engine, count)
    runs = {route: [] for route in ROUTES}
    for _repeat in range(repeats):
        for route in ROUTES:
            runs[route].append(answer_on_route(engine, queries, route))
    polygon, slsqp = runs["polygon"][0], runs["slsqp"][0]
    for route in ROUTES:
        first = runs[route][0]
        for later in runs[route][1:]:
            assert later["results"] == first["results"], f"{route} answers differ across repeats"
            assert later["oracle_calls"] == first["oracle_calls"]

    # Per region: the polygon point is never more than the bound farther.
    gaps = [
        polygon_distance - slsqp_distance
        for polygon_query, slsqp_query in zip(polygon["candidates"], slsqp["candidates"])
        for (polygon_distance, _, _), (slsqp_distance, _, _) in zip(polygon_query, slsqp_query)
    ]
    largest_gap = max(gaps)
    assert largest_gap <= REGION_GAP_BOUND, largest_gap
    oracle = engine.oracle.inner
    for result in polygon["results"]:
        assert not result.satisfactory
        assert oracle.evaluate_function(result.function, engine.dataset)
    slsqp_passing = sum(
        1 for result in slsqp["results"] if oracle.evaluate_function(result.function, engine.dataset)
    )
    polygon_distances = [result.angular_distance for result in polygon["results"]]
    slsqp_distances = [result.angular_distance for result in slsqp["results"]]
    polygon_mean, slsqp_mean = statistics.fmean(polygon_distances), statistics.fmean(slsqp_distances)
    assert polygon_mean <= slsqp_mean + MEAN_GAP_BOUND
    changes = [p - s for p, s in zip(polygon_distances, slsqp_distances)]

    def route_record(route: str) -> dict:
        first = runs[route][0]
        # A query's latency is its median over the repeats.
        latencies = [
            statistics.median(run["latencies"][row] for run in runs[route])
            for row in range(len(queries))
        ]
        stage_seconds = {
            stage: statistics.median(run["stage_seconds"][stage] for run in runs[route])
            for stage in STAGES
        }
        return {
            "p50_ms": 1e3 * _percentile(latencies, 50),
            # p90 is the highest percentile with ten samples beyond it at 100
            # queries; p99 has one and is no tail.
            "p90_ms": 1e3 * _percentile(latencies, 90),
            "p99_ms": 1e3 * _percentile(latencies, 99),
            "mean_ms": 1e3 * statistics.fmean(latencies),
            "stage_seconds": stage_seconds,
            "unattributed_seconds": statistics.median(
                run["unattributed_seconds"] for run in runs[route]
            ),
            "minimize_calls": first["minimize_calls"],
            "lp_solves": first["lp_solves"],
            "online_oracle_calls": first["oracle_calls"],
            "mean_distance": statistics.fmean(
                result.angular_distance for result in first["results"]
            ),
        }

    return {
        "case": name,
        "n": n,
        "dataset_seed": seed,
        "max_hyperplanes": cap,
        "n_regions": engine.index.n_regions,
        "n_satisfactory_regions": len(engine.index.satisfactory_regions),
        "n_edges": int(len(engine.index._polygon_edges().owners)),
        "n_queries": len(queries),
        "polygon": route_record("polygon"),
        "slsqp": route_record("slsqp"),
        "largest_region_gap_rad": largest_gap,
        "largest_slsqp_region_excess_rad": -min(gaps),
        "suggestions_closer": sum(1 for change in changes if change < 0.0),
        "suggestions_farther": sum(1 for change in changes if change > 0.0),
        "suggestions_equal": sum(1 for change in changes if change == 0.0),
        "suggestions_closer_beyond_tolerance": sum(
            1 for change in changes if change < -MOVE_TOLERANCE
        ),
        "suggestions_farther_beyond_tolerance": sum(
            1 for change in changes if change > MOVE_TOLERANCE
        ),
        "largest_suggestion_increase_rad": max(0.0, max(changes)),
        "largest_suggestion_decrease_rad": max(0.0, -min(changes)),
        "slsqp_suggestions_passing_oracle": slsqp_passing,
        "p50_speedup": route_record("slsqp")["p50_ms"] / route_record("polygon")["p50_ms"],
    }


def run_grid(cases=CASES, repeats: int = REPEATS) -> dict:
    return {
        "benchmark": "md_baseline",
        "workload": "make_compas_like(seed) projected to 3 attributes, FM1 (<= share+10% "
        f"African-American in top 30%); unsatisfactory queries of random_queries(seed={QUERY_SEED})",
        "polygon_route": "production at d = 3: one vectorised pass over the satisfactory "
        f"polygons' edges ({multi_dim.EDGE_SAMPLES} samples, {multi_dim.GOLDEN_STEPS} "
        "golden-section steps), the query itself inside a polygon",
        "slsqp_route": "one SLSQP minimisation per satisfactory region from its representative "
        "(tests/differential.py slsqp_only_regions); production at d >= 4",
        "results": [compare_routes(name, cases, repeats) for name in cases],
    }


def _print(payload: dict) -> None:
    for row in payload["results"]:
        for route in ROUTES:
            run = row[route]
            stages = ", ".join(
                f"{stage.removeprefix('query.')} {seconds:.3f}s"
                for stage, seconds in run["stage_seconds"].items()
            )
            print(
                f"{row['case']} {route}: p50 {run['p50_ms']:.2f} ms, p99 {run['p99_ms']:.2f} ms, "
                f"{run['minimize_calls']} minimize, {run['lp_solves']} LP, "
                f"{run['online_oracle_calls']} oracle calls; {stages}"
            )
        print(
            f"  {row['case']}: {row['n_queries']} queries, {row['p50_speedup']:.1f}x at p50, "
            f"region gap {row['largest_region_gap_rad']:.2e}, closer {row['suggestions_closer']} "
            f"({row['suggestions_closer_beyond_tolerance']} by > {MOVE_TOLERANCE:g}), farther "
            f"{row['suggestions_farther']} ({row['suggestions_farther_beyond_tolerance']})"
        )


def test_md_baseline_routes_agree_and_polygons_are_faster(benchmark, once):
    """Reduced-size pytest entry: the checks hold and the polygon route is faster."""
    payload = once(benchmark, run_grid, REDUCED_CASES, 1)
    _print(payload)
    for row in payload["results"]:
        assert row["polygon"]["minimize_calls"] == 0
        assert row["polygon"]["lp_solves"] == row["slsqp"]["lp_solves"] == 0
        assert row["p50_speedup"] > 1.0


def main() -> None:
    payload = run_grid()
    output = write_bench_record(
        "BENCH_md_baseline.json",
        payload,
        parameters={
            "cases": {name: list(case) for name, case in CASES.items()},
            "query_seed": QUERY_SEED,
            "repeats": REPEATS,
            "move_tolerance_rad": MOVE_TOLERANCE,
            "cpu_count": os.cpu_count(),
        },
        repeat_policy=f"{REPEATS} alternating passes (polygon, then SLSQP) over the same "
        "unsatisfactory queries on one engine per case; a query's latency is its median "
        "over the passes, a stage's time the median of its per-pass totals; answers and "
        "oracle calls asserted equal across passes",
    )
    _print(payload)
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
