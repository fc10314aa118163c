"""Workload definitions: one function per experiment in the paper's §6.

Every table and figure of the evaluation maps to one ``experiment_*`` function
here (docs/benchmarks.md names the benchmarks that run them).  The functions
accept scale parameters so the same code can be run at paper scale (hours) or
at the scaled-down sizes used by the benchmark suite (seconds) — the paper's
claims that we reproduce are about *shapes and relative factors*, which are
preserved across scales.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.approx import ApproximatePreprocessor, md_online, md_online_lookup
from repro.core.engine import ApproxConfig, create_engine
from repro.core.sampling import validate_index_on_dataset
from repro.core.two_dim import TwoDRaySweep
from repro.data.dataset import Dataset
from repro.data.synthetic import (
    COMPAS_SCORING_ATTRIBUTES,
    make_compas_like,
    make_dot_like,
)
from repro.experiments.harness import SweepResult
from repro.fairness.multi_attribute import MultiAttributeOracle
from repro.fairness.oracle import CountingOracle, FairnessOracle
from repro.fairness.proportional import ProportionalOracle, TopKGroupBoundOracle
from repro.geometry.arrangement import Arrangement
from repro.geometry.arrangement_tree import ArrangementTree
from repro.geometry.cellplane import assign_hyperplanes_to_cells
from repro.geometry.dual import hyperplanes_for_dataset
from repro.geometry.partition import UniformGridPartition
from repro.core.multi_dim import SatRegions
from repro.obs.trace import TraceRecorder, activated
from repro.ranking.queries import random_queries
from repro.ranking.scoring import LinearScoringFunction

__all__ = [
    "default_compas_dataset",
    "default_compas_oracle",
    "experiment_fig16_validation",
    "experiment_sec62_layouts",
    "experiment_online_2d",
    "experiment_online_md",
    "experiment_fig17_2d_preprocessing",
    "experiment_fig18_arrangement_tree",
    "experiment_fig19_region_growth",
    "experiment_fig20_hyperplanes",
    "experiment_fig21_cell_hyperplanes",
    "experiment_fig22_preprocessing_vs_n",
    "experiment_fig23_preprocessing_vs_d",
    "experiment_sampling_dot",
    "experiment_ablation_convex_layers",
]


# --------------------------------------------------------------------------- #
# shared configuration helpers
# --------------------------------------------------------------------------- #
def default_compas_dataset(n: int = 6889, d: int = 3, seed: int = 0) -> Dataset:
    """The COMPAS-like dataset restricted to the first ``d`` scoring attributes (§6.1)."""
    dataset = make_compas_like(n=n, seed=seed)
    return dataset.project(list(COMPAS_SCORING_ATTRIBUTES[:d]))


def default_compas_oracle(
    dataset: Dataset, k: float = 0.30, slack: float = 0.10
) -> ProportionalOracle:
    """The paper's default FM1 constraint: at most share+10% African-American in the top 30%."""
    return ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=k, slack=slack
    )


# --------------------------------------------------------------------------- #
# E1 / Figure 16 — validation: distance between input and output functions
# --------------------------------------------------------------------------- #
@dataclass
class ValidationResult:
    """Outcome of the Fig. 16 validation experiment."""

    n_queries: int
    n_already_satisfactory: int
    distances: list[float] = field(default_factory=list)

    def cumulative_counts(self, thresholds: Sequence[float] = (0.2, 0.4, 0.6)) -> dict[float, int]:
        """Number of repaired queries whose suggestion lies within each distance threshold."""
        return {
            threshold: int(sum(1 for value in self.distances if value < threshold))
            for threshold in thresholds
        }

    @property
    def max_distance(self) -> float:
        """Largest suggestion distance over the repaired queries (0 if none needed repair)."""
        return max(self.distances) if self.distances else 0.0


def experiment_fig16_validation(
    n_items: int = 500,
    d: int = 3,
    n_queries: int = 100,
    n_cells: int = 1024,
    max_hyperplanes: int | None = 400,
    seed: int = 0,
) -> ValidationResult:
    """Issue random queries and measure the angle distance of the suggested repairs."""
    dataset = default_compas_dataset(n=n_items, d=d, seed=seed)
    oracle = default_compas_oracle(dataset)
    index = ApproximatePreprocessor(
        dataset, oracle, n_cells=n_cells, max_hyperplanes=max_hyperplanes
    ).run()
    result = ValidationResult(n_queries=n_queries, n_already_satisfactory=0)
    for query in random_queries(d, n_queries, seed=seed):
        answer = md_online(index, query)
        if answer.satisfactory:
            result.n_already_satisfactory += 1
        else:
            result.distances.append(answer.angular_distance)
    return result


# --------------------------------------------------------------------------- #
# E2–E4 / §6.2 — layout of satisfactory regions in 2-D
# --------------------------------------------------------------------------- #
@dataclass
class LayoutResult:
    """Satisfactory-region layout for one 2-D configuration of §6.2."""

    name: str
    n_regions: int
    total_satisfactory_angle: float
    max_repair_distance: float


def _layout_for(dataset: Dataset, oracle: FairnessOracle, name: str, n_queries: int, seed: int) -> LayoutResult:
    index = TwoDRaySweep(dataset, oracle).run()
    total = sum(interval.end - interval.start for interval in index.intervals)
    max_distance = 0.0
    if index.has_satisfactory_region:
        for query in random_queries(2, n_queries, seed=seed):
            answer = index.query(query)
            max_distance = max(max_distance, answer.angular_distance)
    else:
        max_distance = float("nan")
    return LayoutResult(
        name=name,
        n_regions=len(index.intervals),
        total_satisfactory_angle=total,
        max_repair_distance=max_distance,
    )


def experiment_sec62_layouts(
    n_items: int = 400, n_queries: int = 50, seed: int = 0
) -> list[LayoutResult]:
    """Reproduce the three §6.2 layout experiments (correlated FM1, race FM1, FM2)."""
    base = make_compas_like(n=n_items, seed=seed)
    results = []

    # (E2) scoring on age (younger better) and juv_other_count, FM1 on age_binary:
    # the correlation between a scoring attribute and the type attribute leaves
    # few satisfactory choices.
    dataset_age = base.project(["age", "juv_other_count"])
    oracle_age = ProportionalOracle(
        "age_binary", "35_or_younger", k=min(100, n_items // 4), max_fraction=0.70
    )
    results.append(_layout_for(dataset_age, oracle_age, "FM1 on age (correlated)", n_queries, seed))

    # (E3) same scoring attributes, FM1 on race: several satisfactory regions,
    # repairs are tiny.
    oracle_race = TopKGroupBoundOracle(
        "race", "African-American", k=min(100, n_items // 4), max_count=int(0.6 * min(100, n_items // 4))
    )
    results.append(_layout_for(dataset_age, oracle_race, "FM1 on race", n_queries, seed))

    # (E4) juv_other_count and c_days_from_compas with FM2 over sex, race and age.
    dataset_fm2 = base.project(["juv_other_count", "c_days_from_compas"])
    k = min(100, n_items // 4)
    oracle_fm2 = MultiAttributeOracle(
        [
            ("sex", "male", int(0.90 * k)),
            ("race", "African-American", int(0.60 * k)),
            ("age_bucketized", "30_or_younger", int(0.52 * k)),
        ],
        k=k,
    )
    results.append(_layout_for(dataset_fm2, oracle_fm2, "FM2 (sex, race, age)", n_queries, seed))
    return results


# --------------------------------------------------------------------------- #
# E5–E6 / §6.3 — online query answering performance
# --------------------------------------------------------------------------- #
@dataclass
class OnlineTimingResult:
    """Average per-query times for the online phase vs. the cost of just sorting."""

    label: str
    mean_query_seconds: float
    mean_ordering_seconds: float

    @property
    def speedup(self) -> float:
        """How much faster answering from the index is than sorting the data once."""
        if self.mean_query_seconds == 0:
            return float("inf")
        return self.mean_ordering_seconds / self.mean_query_seconds


def _time_queries(answer, queries, dataset) -> tuple[float, float]:
    started = time.perf_counter()
    for query in queries:
        answer(query)
    query_seconds = (time.perf_counter() - started) / len(queries)
    started = time.perf_counter()
    for query in queries:
        query.order(dataset)
    ordering_seconds = (time.perf_counter() - started) / len(queries)
    return query_seconds, ordering_seconds


def experiment_online_2d(
    n_items: int = 6889, n_queries: int = 30, seed: int = 0
) -> OnlineTimingResult:
    """2DONLINE latency vs. the cost of ordering the dataset (§6.3, 2D)."""
    dataset = default_compas_dataset(n=n_items, d=2, seed=seed)
    oracle = default_compas_oracle(dataset)
    index = TwoDRaySweep(dataset, oracle).run()
    queries = random_queries(2, n_queries, seed=seed)
    query_seconds, ordering_seconds = _time_queries(index.query, queries, dataset)
    return OnlineTimingResult("2DONLINE", query_seconds, ordering_seconds)


def experiment_online_md(
    d_values: Sequence[int] = (3, 4, 5, 6),
    n_items: int = 500,
    n_queries: int = 30,
    n_cells: int = 1024,
    max_hyperplanes: int | None = 400,
    seed: int = 0,
) -> list[OnlineTimingResult]:
    """MDONLINE latency for several dimensionalities vs. the cost of ordering (§6.3, MD).

    The timed query path is the index lookup (``md_online_lookup``): locating
    the query's cell and returning its assigned function.  This is the
    dataset-size-independent cost the paper reports for MDONLINE; the initial
    "is the query already satisfactory?" check of Algorithm 11 costs exactly
    one ordering and is reported separately as ``mean_ordering_seconds``.
    """
    results = []
    for d in d_values:
        dataset = default_compas_dataset(n=n_items, d=d, seed=seed)
        oracle = default_compas_oracle(dataset)
        index = ApproximatePreprocessor(
            dataset, oracle, n_cells=n_cells, max_hyperplanes=max_hyperplanes
        ).run()
        queries = random_queries(d, n_queries, seed=seed)
        query_seconds, ordering_seconds = _time_queries(
            lambda query: md_online_lookup(index, query), queries, dataset
        )
        results.append(OnlineTimingResult(f"MDONLINE d={d}", query_seconds, ordering_seconds))
    return results


# --------------------------------------------------------------------------- #
# E7 / Figure 17 — 2-D preprocessing cost vs. n
# --------------------------------------------------------------------------- #
def experiment_fig17_2d_preprocessing(
    n_values: Sequence[int] = (100, 200, 400, 800), seed: int = 0
) -> SweepResult:
    """Number of ordering exchanges and ray-sweep time as the dataset grows."""
    result = SweepResult(parameter="n")
    exchanges_series = result.series_named("ordering_exchanges")
    time_series = result.series_named("preprocess_seconds")
    for n in n_values:
        dataset = default_compas_dataset(n=n, d=2, seed=seed)
        oracle = default_compas_oracle(dataset)
        started = time.perf_counter()
        index = TwoDRaySweep(dataset, oracle).run()
        elapsed = time.perf_counter() - started
        exchanges_series.add(n, index.n_exchanges)
        time_series.add(n, elapsed)
    return result


# --------------------------------------------------------------------------- #
# E8 / Figure 18 and E9 / Figure 19 — arrangement construction
# --------------------------------------------------------------------------- #
def experiment_fig18_arrangement_tree(
    n_items: int = 60,
    d: int = 3,
    hyperplane_counts: Sequence[int] = (10, 20, 40, 80),
    seed: int = 0,
) -> SweepResult:
    """Arrangement construction time: flat region list vs. arrangement tree."""
    dataset = default_compas_dataset(n=n_items, d=d, seed=seed)
    hyperplanes = hyperplanes_for_dataset(dataset)
    result = SweepResult(parameter="hyperplanes")
    baseline_series = result.series_named("baseline_seconds")
    tree_series = result.series_named("arrangement_tree_seconds")
    for count in hyperplane_counts:
        subset = hyperplanes[: min(count, len(hyperplanes))]
        started = time.perf_counter()
        Arrangement.build(subset, dimension=d - 1)
        baseline_series.add(len(subset), time.perf_counter() - started)
        started = time.perf_counter()
        tree = ArrangementTree(dimension=d - 1)
        for hyperplane in subset:
            tree.insert(hyperplane)
        tree_series.add(len(subset), time.perf_counter() - started)
    return result


def experiment_fig19_region_growth(
    n_items: int = 60,
    d: int = 3,
    checkpoints: Sequence[int] = (10, 20, 40, 80),
    seed: int = 0,
) -> SweepResult:
    """Number of arrangement regions as hyperplanes are added incrementally."""
    dataset = default_compas_dataset(n=n_items, d=d, seed=seed)
    hyperplanes = hyperplanes_for_dataset(dataset)
    result = SweepResult(parameter="hyperplanes")
    regions_series = result.series_named("regions")
    arrangement = Arrangement(dimension=d - 1)
    inserted = 0
    for checkpoint in checkpoints:
        target = min(checkpoint, len(hyperplanes))
        while inserted < target:
            arrangement.insert(hyperplanes[inserted])
            inserted += 1
        regions_series.add(inserted, arrangement.n_regions)
    return result


# --------------------------------------------------------------------------- #
# E10 / Figure 20 — number of hyperplanes vs. n
# --------------------------------------------------------------------------- #
def experiment_fig20_hyperplanes(
    n_values: Sequence[int] = (50, 100, 200, 400), d: int = 3, seed: int = 0
) -> SweepResult:
    """|H| (exchange hyperplanes) and construction time as the dataset grows."""
    result = SweepResult(parameter="n")
    count_series = result.series_named("hyperplanes")
    time_series = result.series_named("construction_seconds")
    for n in n_values:
        dataset = default_compas_dataset(n=n, d=d, seed=seed)
        started = time.perf_counter()
        hyperplanes = hyperplanes_for_dataset(dataset)
        time_series.add(n, time.perf_counter() - started)
        count_series.add(n, len(hyperplanes))
    return result


# --------------------------------------------------------------------------- #
# E11 / Figure 21 — hyperplanes per cell
# --------------------------------------------------------------------------- #
def experiment_fig21_cell_hyperplanes(
    n_items: int = 100, d: int = 4, n_cells: int = 1296, max_hyperplanes: int | None = 600,
    seed: int = 0,
) -> np.ndarray:
    """Sorted number of hyperplanes passing through each cell (the Fig. 21 curve)."""
    dataset = default_compas_dataset(n=n_items, d=d, seed=seed)
    hyperplanes = hyperplanes_for_dataset(dataset)
    if max_hyperplanes is not None:
        hyperplanes = hyperplanes[:max_hyperplanes]
    partition = UniformGridPartition(d - 1, n_cells)
    index = assign_hyperplanes_to_cells(partition, hyperplanes)
    return np.sort(index.counts())


# --------------------------------------------------------------------------- #
# E12–E13 / Figures 22–23 — preprocessing step times
# --------------------------------------------------------------------------- #
#: Series of Figs. 22–23 and the approximate-pipeline stage span each one reads.
_APPROX_STAGE_SPANS = {
    "hyperplane_seconds": "preprocess.hyperplane_construction",
    "cell_plane_seconds": "preprocess.cell_plane_assignment",
    "mark_cell_seconds": "preprocess.mark_cells",
    "coloring_seconds": "preprocess.cell_coloring",
}


def _approx_stage_seconds(
    dataset: Dataset, oracle: FairnessOracle, n_cells: int, max_hyperplanes: int | None
) -> dict[str, float]:
    """Seconds of each approximate preprocessing stage, read from one run's stage spans.

    Spans are matched by exact name, so the ``pair_chunk`` and
    ``hyperplane_chunk`` spans nested inside a stage are not counted twice.
    """
    recorder = TraceRecorder()
    with activated(recorder):
        ApproximatePreprocessor(
            dataset, oracle, n_cells=n_cells, max_hyperplanes=max_hyperplanes
        ).run()
    durations = {span.name: span.duration for span in recorder.spans}
    seconds = {series: durations[name] for series, name in _APPROX_STAGE_SPANS.items()}
    seconds["total_seconds"] = sum(seconds.values())
    return seconds


def experiment_fig22_preprocessing_vs_n(
    n_values: Sequence[int] = (50, 100, 200),
    d: int = 3,
    n_cells: int = 400,
    max_hyperplanes: int | None = 300,
    seed: int = 0,
) -> SweepResult:
    """Per-step preprocessing times of the approximate pipeline as ``n`` grows."""
    result = SweepResult(parameter="n")
    for n in n_values:
        dataset = default_compas_dataset(n=n, d=d, seed=seed)
        oracle = default_compas_oracle(dataset)
        stages = _approx_stage_seconds(dataset, oracle, n_cells, max_hyperplanes)
        for series, seconds in stages.items():
            result.series_named(series).add(n, seconds)
    return result


def experiment_fig23_preprocessing_vs_d(
    d_values: Sequence[int] = (3, 4, 5),
    n_items: int = 100,
    n_cells: int = 400,
    max_hyperplanes: int | None = 200,
    seed: int = 0,
) -> SweepResult:
    """Per-step preprocessing times of the approximate pipeline as ``d`` grows."""
    result = SweepResult(parameter="d")
    for d in d_values:
        dataset = default_compas_dataset(n=n_items, d=d, seed=seed)
        oracle = default_compas_oracle(dataset)
        stages = _approx_stage_seconds(dataset, oracle, n_cells, max_hyperplanes)
        for series, seconds in stages.items():
            result.series_named(series).add(d, seconds)
    return result


# --------------------------------------------------------------------------- #
# E14 / §6.4 — sampling for large-scale settings
# --------------------------------------------------------------------------- #
@dataclass
class SamplingResult:
    """Outcome of the §6.4 sampling experiment on the DOT-like dataset."""

    full_size: int
    sample_size: int
    preprocess_seconds: float
    n_functions_checked: int
    n_satisfactory_on_full: int

    @property
    def all_satisfactory(self) -> bool:
        """True when every sampled-index function remains satisfactory on the full data."""
        return self.n_functions_checked > 0 and (
            self.n_satisfactory_on_full == self.n_functions_checked
        )


def experiment_sampling_dot(
    full_size: int = 200_000,
    sample_size: int = 1000,
    n_cells: int = 400,
    max_hyperplanes: int | None = 300,
    top_fraction: float = 0.10,
    slack: float = 0.05,
    seed: int = 0,
) -> SamplingResult:
    """Preprocess a DOT-like dataset on a uniform sample and validate on the full data."""
    dataset = make_dot_like(n=full_size, seed=seed)
    oracle = MultiAttributeOracle(
        [
            ProportionalOracle.at_most_share_plus_slack(
                dataset, "carrier", carrier, k=top_fraction, slack=slack
            )
            for carrier in ("DL", "AA", "WN", "UA")
        ],
        k=top_fraction,
    )
    config = ApproxConfig(
        n_cells=n_cells,
        max_hyperplanes=max_hyperplanes,
        sample_size=sample_size,
        sample_seed=seed,
    )
    started = time.perf_counter()
    engine = create_engine(dataset, oracle, config).preprocess()
    elapsed = time.perf_counter() - started
    report = validate_index_on_dataset(engine.index, dataset, oracle)
    return SamplingResult(
        full_size=full_size,
        sample_size=engine.preprocessing_dataset.n_items,
        preprocess_seconds=elapsed,
        n_functions_checked=report.n_functions_checked,
        n_satisfactory_on_full=report.n_satisfactory,
    )


# --------------------------------------------------------------------------- #
# A2 — ablation of the convex-layer (onion) filter
# --------------------------------------------------------------------------- #
def experiment_ablation_convex_layers(
    n_items: int = 80, d: int = 3, k: int = 20, seed: int = 0
) -> dict[str, float]:
    """Compare exchange-hyperplane counts and SATREGIONS time with and without the §8 filter."""
    dataset = default_compas_dataset(n=n_items, d=d, seed=seed)
    oracle = CountingOracle(
        TopKGroupBoundOracle("race", "African-American", k=k, max_count=int(0.6 * k))
    )
    results: dict[str, float] = {}
    for label, layer_k in (("full", None), ("convex_layers", k)):
        builder = SatRegions(
            dataset, oracle, use_arrangement_tree=True, max_hyperplanes=60, convex_layer_k=layer_k
        )
        started = time.perf_counter()
        hyperplanes = builder.build_hyperplanes()
        index = builder.run()
        results[f"{label}_seconds"] = time.perf_counter() - started
        results[f"{label}_hyperplanes"] = float(len(hyperplanes))
        results[f"{label}_satisfactory_regions"] = float(len(index.satisfactory_regions))
    return results
