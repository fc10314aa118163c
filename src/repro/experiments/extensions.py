"""Extension experiments beyond the paper's §6: ablations of our design choices.

Three studies that the paper motivates but does not report, used by the
``bench_ablation_*`` / ``bench_baseline_comparison`` benchmark modules:

* **grid resolution** — how the Theorem 6 error bound, the observed suggestion
  distances and the preprocessing cost trade off as the number of cells ``N``
  grows (the user-controllable approximation knob of §5);
* **partition backend** — the paper's adaptive equal-area partition
  (Appendix A.2) vs. the plain uniform grid at the same cell budget;
* **design-time vs. output re-ranking** — the designer's suggested weight
  vector vs. the FA*IR-style greedy re-ranker and the constrained top-``k``
  baseline (§7 related work), comparing constraint satisfaction, score
  utility, and whether the result is still a linear ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.approx import ApproximatePreprocessor, md_online
from repro.data.dataset import Dataset
from repro.experiments.harness import SweepResult, span_seconds
from repro.experiments.workloads import default_compas_dataset, default_compas_oracle
from repro.fairness.baselines import constrained_topk
from repro.fairness.proportional import ProportionalOracle
from repro.ranking.queries import random_queries
from repro.ranking.scoring import LinearScoringFunction
from repro.ranking.topk import resolve_k

__all__ = [
    "experiment_ablation_grid_resolution",
    "experiment_ablation_partition",
    "BaselineComparison",
    "experiment_baseline_comparison",
]


# --------------------------------------------------------------------------- #
# grid-resolution ablation (the §5 approximation knob)
# --------------------------------------------------------------------------- #
def experiment_ablation_grid_resolution(
    n_cells_values: tuple[int, ...] = (16, 64, 256, 1024),
    n_items: int = 200,
    d: int = 3,
    n_queries: int = 30,
    max_hyperplanes: int | None = 200,
    seed: int = 0,
) -> SweepResult:
    """Sweep the number of grid cells ``N`` and record bound, observed distance and cost.

    Series produced: ``theorem6_bound`` (the guaranteed worst-case extra
    distance), ``mean_suggestion_distance`` (observed over random unfair
    queries), ``marked_cell_fraction`` and ``preprocess_seconds``.
    """
    dataset = default_compas_dataset(n=n_items, d=d, seed=seed)
    oracle = default_compas_oracle(dataset)
    result = SweepResult(parameter="n_cells")
    queries = random_queries(d, n_queries, seed=seed)
    for n_cells in n_cells_values:
        index, seconds = span_seconds(
            "ablation.preprocess",
            lambda: ApproximatePreprocessor(
                dataset, oracle, n_cells=n_cells, max_hyperplanes=max_hyperplanes
            ).run(),
        )
        distances = []
        for query in queries:
            answer = md_online(dataset, oracle, index, query)
            if not answer.satisfactory:
                distances.append(answer.angular_distance)
        result.series_named("theorem6_bound").add(index.n_cells, index.approximation_bound())
        result.series_named("mean_suggestion_distance").add(
            index.n_cells, float(np.mean(distances)) if distances else 0.0
        )
        result.series_named("marked_cell_fraction").add(
            index.n_cells, index.n_marked_cells / index.n_cells
        )
        result.series_named("preprocess_seconds").add(
            index.n_cells, seconds["ablation.preprocess"]
        )
    return result


# --------------------------------------------------------------------------- #
# partition-backend ablation (uniform grid vs. Appendix A.2 equal-area)
# --------------------------------------------------------------------------- #
def experiment_ablation_partition(
    n_items: int = 150,
    d: int = 3,
    n_cells: int = 256,
    n_queries: int = 20,
    max_hyperplanes: int | None = 150,
    seed: int = 0,
) -> SweepResult:
    """Compare the two partition backends at the same cell budget.

    The sweep's x axis enumerates the backends (0 = uniform, 1 = angle); the
    series record the realised cell count, the per-cell diameter bound, the
    fraction of cells marked directly, the preprocessing time and the mean
    suggestion distance over a fixed query workload.
    """
    dataset = default_compas_dataset(n=n_items, d=d, seed=seed)
    oracle = default_compas_oracle(dataset)
    queries = random_queries(d, n_queries, seed=seed)
    result = SweepResult(parameter="backend_index")
    for backend_index, backend in enumerate(("uniform", "angle")):
        index, seconds = span_seconds(
            "ablation.preprocess",
            lambda: ApproximatePreprocessor(
                dataset, oracle, n_cells=n_cells, partition=backend,
                max_hyperplanes=max_hyperplanes,
            ).run(),
        )
        distances = []
        for query in queries:
            answer = md_online(dataset, oracle, index, query)
            if not answer.satisfactory:
                distances.append(answer.angular_distance)
        result.series_named("realised_cells").add(backend_index, index.n_cells)
        result.series_named("cell_diameter_bound").add(
            backend_index, index.partition.max_cell_diameter()
        )
        result.series_named("marked_cell_fraction").add(
            backend_index, index.n_marked_cells / index.n_cells
        )
        result.series_named("preprocess_seconds").add(
            backend_index, seconds["ablation.preprocess"]
        )
        result.series_named("mean_suggestion_distance").add(
            backend_index, float(np.mean(distances)) if distances else 0.0
        )
    return result


# --------------------------------------------------------------------------- #
# design-time weight repair vs. output re-ranking baselines (§7)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BaselineComparison:
    """Outcome of comparing the designer against the §7 re-ranking baselines.

    All three approaches are forced to respect the same FM1 upper bound on the
    protected group at the top-``k``.  ``utility`` is the total original-weight
    score of the selected top-``k``, normalised by the unconstrained optimum
    (1.0 means no score was sacrificed).  ``protected_share`` is the realised
    protected share of the top-``k``.  ``is_linear`` records whether the final
    ranking is still induced by a linear scoring function over the attributes
    — the property that distinguishes weight design from output intervention.
    """

    method: str
    protected_share: float
    utility: float
    satisfies_constraint: bool
    is_linear: bool
    angular_distance_to_query: float


def _topk_utility(dataset: Dataset, scores: np.ndarray, selection: np.ndarray) -> float:
    return float(np.sum(scores[np.asarray(selection, dtype=int)]))


def experiment_baseline_comparison(
    n_items: int = 400,
    d: int = 3,
    k: float = 0.25,
    slack: float = 0.10,
    n_cells: int = 256,
    max_hyperplanes: int | None = 200,
    seed: int = 0,
) -> list[BaselineComparison]:
    """Compare the designer's weight repair with the FA*IR and constrained top-k baselines.

    The user's query is the equal-weights function.  The constraint is the
    paper's default FM1 bound ("at most dataset share + ``slack`` of the
    protected group in the top-``k``").  Four rows are returned: the original
    query, the designer's suggestion, the greedy re-ranker and the constrained
    top-``k`` selection.
    """
    dataset = default_compas_dataset(n=n_items, d=d, seed=seed)
    attribute, protected = "race", "African-American"
    oracle = ProportionalOracle.at_most_share_plus_slack(
        dataset, attribute, protected, k=k, slack=slack
    )
    k_count = resolve_k(dataset, k)
    max_protected = int(np.floor(oracle.max_fraction * k_count + 1e-9))

    query = np.full(d, 1.0 / d)
    query_function = LinearScoringFunction(tuple(query))
    query_scores = query_function.score(dataset)
    query_ordering = query_function.order(dataset)
    unconstrained_utility = _topk_utility(dataset, query_scores, query_ordering[:k_count])

    def share_of(selection: np.ndarray) -> float:
        column = dataset.type_column(attribute)
        return float(np.mean(column[np.asarray(selection, dtype=int)] == protected))

    rows: list[BaselineComparison] = []

    # Row 1: the user's query as-is.
    rows.append(
        BaselineComparison(
            method="query",
            protected_share=share_of(query_ordering[:k_count]),
            utility=1.0,
            satisfies_constraint=oracle.is_satisfactory(query_ordering, dataset),
            is_linear=True,
            angular_distance_to_query=0.0,
        )
    )

    # Row 2: the designer's closest satisfactory weight vector.
    index = ApproximatePreprocessor(
        dataset, oracle, n_cells=n_cells, max_hyperplanes=max_hyperplanes
    ).run()
    suggestion = md_online(dataset, oracle, index, query_function)
    suggested_ordering = suggestion.function.order(dataset)
    rows.append(
        BaselineComparison(
            method="designer",
            protected_share=share_of(suggested_ordering[:k_count]),
            utility=_topk_utility(dataset, query_scores, suggested_ordering[:k_count])
            / unconstrained_utility,
            satisfies_constraint=oracle.is_satisfactory(suggested_ordering, dataset),
            is_linear=True,
            angular_distance_to_query=suggestion.angular_distance,
        )
    )

    # Row 3: greedy re-ranking of the query's output in the FA*IR spirit, here
    # for an *upper* bound: walk the ordering in score order and defer
    # protected items once the allowed count at the top-k is reached.
    column = dataset.type_column(attribute)
    selected: list[int] = []
    protected_taken = 0
    for item in query_ordering:
        item = int(item)
        if column[item] == protected:
            if protected_taken >= max_protected:
                continue
            protected_taken += 1
        selected.append(item)
        if len(selected) == k_count:
            break
    rerank_topk = np.asarray(selected[:k_count], dtype=int)
    rerank_full = np.concatenate(
        [rerank_topk, np.asarray([i for i in query_ordering if int(i) not in set(selected[:k_count])], dtype=int)]
    )
    rows.append(
        BaselineComparison(
            method="greedy_rerank",
            protected_share=share_of(rerank_topk),
            utility=_topk_utility(dataset, query_scores, rerank_topk) / unconstrained_utility,
            satisfies_constraint=oracle.is_satisfactory(rerank_full, dataset),
            is_linear=False,
            angular_distance_to_query=float("nan"),
        )
    )

    # Row 4: constrained top-k selection with a per-group upper bound.
    constrained = constrained_topk(
        dataset,
        query_scores,
        k=k_count,
        max_counts={(attribute, protected): max_protected},
    )
    constrained_full = np.concatenate(
        [constrained, np.asarray([i for i in query_ordering if int(i) not in set(constrained.tolist())], dtype=int)]
    )
    rows.append(
        BaselineComparison(
            method="constrained_topk",
            protected_share=share_of(constrained),
            utility=_topk_utility(dataset, query_scores, constrained) / unconstrained_utility,
            satisfies_constraint=oracle.is_satisfactory(constrained_full, dataset),
            is_linear=False,
            angular_distance_to_query=float("nan"),
        )
    )
    return rows
