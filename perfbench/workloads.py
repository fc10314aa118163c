"""The benchmark's workloads: dataset, constraint, engine config and input streams.

Each workload pins its dataset, and ``maintain2d`` its delta stream; the
run's ``--seed`` draws the query stream.  Dataset seeds are pinned because
the work itself swings with them: the 3-D preprocessing cost by more than 10x
(``MARKCELL`` region probes and ``SATREGIONS`` regions depend on how the
hyperplanes fall, and some seeds leave no satisfactory region), the 2-D
query cost with the number of satisfactory intervals.  The cost stamp of every
result records the counts that would show a change of work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.engine import ApproxConfig, ExactConfig, TwoDConfig
from repro.core.maintenance import DatasetDelta
from repro.data.dataset import Dataset
from repro.data.synthetic import COMPAS_SCORING_ATTRIBUTES, make_compas_like
from repro.fairness.batched import evaluate_functions_many
from repro.fairness.oracle import FairnessOracle
from repro.fairness.proportional import ProportionalOracle
from repro.ranking.scoring import LinearScoringFunction

__all__ = [
    "Workload",
    "WORKLOADS",
    "QueryBatch",
    "QueryPools",
    "query_pools",
    "query_batches",
    "make_delta",
]

#: Candidate queries, drawn from the dataset seed and split by the raw oracle;
#: their satisfactory share sets the mix of the serving workloads.
POOL_SIZE = 4096


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and its sizes."""

    name: str
    why: str
    d: int
    n: int
    config: TwoDConfig | ApproxConfig | ExactConfig
    data_seed: int
    #: Fixed FM1 upper share; ``None`` derives it from the dataset (share + 10%).
    max_fraction: float | None
    batch_size: int
    singles_per_cycle: int
    #: Rounds of set-up, preprocessing and loop share per ``--trace 0`` run.
    rounds: int
    #: Timed preprocesses of fresh engines per round.
    preprocesses_per_round: int
    #: Floors of a run, split evenly over its rounds: a round ends at its
    #: deadline, but not before its share of singles and cycles.
    min_singles: int
    min_cycles: int
    traced_cycles: int
    #: Queries of each verdict a serving workload answers: the first ones of
    #: each side of the candidate pool, walked in seeded permutations.  A run
    #: answers each of them about equally often, so its latency does not
    #: depend on which of the slower queries a seed happens to draw.
    served_per_verdict: int = 64
    #: Writes beside reads: each cycle applies one delta before its reads.
    maintain: bool = False

    def make_dataset(self) -> Dataset:
        dataset = make_compas_like(n=self.n, seed=self.data_seed)
        return dataset.project(list(COMPAS_SCORING_ATTRIBUTES[: self.d]))

    def make_oracle(self, dataset: Dataset) -> ProportionalOracle:
        if self.max_fraction is None:
            return ProportionalOracle.at_most_share_plus_slack(
                dataset, "race", "African-American", k=0.3, slack=0.10
            )
        # Constant parameters: the maintained engine and its rebuilt twin
        # must answer under the same constraint, whatever the deltas did.
        return ProportionalOracle(
            "race", "African-American", 0.3, max_fraction=self.max_fraction
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="grid3d",
            why="approximate grid at d=3: MARKCELL's LP-backed region probes dominate "
            "preprocessing; online runs order_many, is_satisfactory_many, locate_cells",
            d=3,
            n=300,
            config=ApproxConfig(n_cells=64, max_hyperplanes=24),
            data_seed=3,
            max_fraction=None,
            batch_size=256,
            singles_per_cycle=32,
            rounds=12,
            preprocesses_per_round=2,
            min_singles=3840,
            min_cycles=120,
            traced_cycles=10,
        ),
        Workload(
            name="exact3d",
            why="exact pipeline at d=3: the only online path dominated by per-query "
            "MDBASELINE solves; SATREGIONS shares Region/linprog with MARKCELL",
            d=3,
            n=100,
            config=ExactConfig(max_hyperplanes=20),
            data_seed=3,
            max_fraction=None,
            batch_size=2,
            singles_per_cycle=2,
            rounds=10,
            preprocesses_per_round=1,
            min_singles=120,
            min_cycles=60,
            traced_cycles=10,
            # Six or more permutations of the served queries per run.
            served_per_verdict=16,
        ),
        Workload(
            name="maintain2d",
            why="writes beside reads: small mixed deltas through core.maintenance, each "
            "followed by reads, so work moved from a write into the next read shows",
            d=2,
            n=300,
            config=TwoDConfig(),
            data_seed=3,
            max_fraction=0.72,
            batch_size=64,
            singles_per_cycle=10,
            rounds=15,
            preprocesses_per_round=2,
            min_singles=1000,
            min_cycles=100,
            traced_cycles=10,
            maintain=True,
        ),
    )
}


@dataclass(frozen=True)
class QueryBatch:
    """One batch of queries: the weight matrix, its functions and expected verdicts.

    ``expected`` holds the raw oracle's verdict per row when it is known in
    advance (serving workloads), and is ``None`` when the dataset changes
    between batches (the maintenance workload checks against the current
    dataset instead).
    """

    matrix: np.ndarray
    functions: tuple[LinearScoringFunction, ...]
    expected: tuple[bool, ...] | None


def _random_rows(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    # Strictly positive weights: every row is a valid scoring function.
    return rng.random((count, d)) + 0.01


def _batch(matrix: np.ndarray, expected: tuple[bool, ...] | None) -> QueryBatch:
    functions = tuple(LinearScoringFunction(tuple(row)) for row in matrix.tolist())
    return QueryBatch(matrix, functions, expected)


@dataclass(frozen=True)
class QueryPools:
    """Candidate queries split by the raw oracle's verdict."""

    satisfactory: np.ndarray
    unsatisfactory: np.ndarray

    @property
    def satisfactory_share(self) -> float:
        """Share of the candidates the raw oracle accepts, as measured."""
        return len(self.satisfactory) / (len(self.satisfactory) + len(self.unsatisfactory))


def query_pools(dataset: Dataset, oracle: FairnessOracle, data_seed: int) -> QueryPools:
    """``POOL_SIZE`` random candidate queries of the dataset seed, split by verdict."""
    rng = np.random.default_rng([data_seed, 3])
    candidates = _random_rows(rng, POOL_SIZE, dataset.n_attributes)
    functions = [LinearScoringFunction(tuple(row)) for row in candidates.tolist()]
    verdicts = evaluate_functions_many(oracle, dataset, functions, weight_matrix=candidates)
    return QueryPools(candidates[verdicts], candidates[~verdicts])


def _cycling(rng: np.random.Generator, count: int) -> Iterator[int]:
    """Endless indices below ``count``: one seeded permutation after another."""
    while True:
        yield from rng.permutation(count).tolist()


def query_batches(
    rng: np.random.Generator,
    batch_size: int,
    d: int,
    pools: QueryPools | None = None,
    served_per_verdict: int = 64,
) -> Iterator[QueryBatch]:
    """Endless seeded batches of queries.

    Without ``pools`` every query is a fresh random row.  With ``pools`` the
    stream keeps the measured satisfactory share at every prefix: query ``i``
    is satisfactory exactly when ``floor((i + 1) * share) > floor(i * share)``,
    so the mix is the same on every run seed.  The queries themselves are the
    ``served_per_verdict`` first candidates of each verdict, in an order the
    seed draws.
    """
    if pools is None:
        while True:
            yield _batch(_random_rows(rng, batch_size, d), None)
    served = [pool[:served_per_verdict] for pool in (pools.unsatisfactory, pools.satisfactory)]
    orders = [_cycling(rng, len(pool)) for pool in served]
    share = pools.satisfactory_share
    position = 0
    while True:
        index = np.arange(position, position + batch_size)
        expected = np.floor((index + 1) * share) > np.floor(index * share)
        matrix = np.array(
            [served[verdict][next(orders[verdict])] for verdict in expected.astype(int)]
        )
        position += batch_size
        yield _batch(matrix, tuple(expected.tolist()))


def make_delta(rng: np.random.Generator, dataset: Dataset, number: int) -> DatasetDelta:
    """The ``number``-th delta of a stream: mixed inserts, deletes and one update.

    Even deltas insert 3 items and delete 2, odd ones insert 2 and delete 3.
    Alternating keeps the dataset size within one item of its start, so a
    time-bounded loop measures the same ``n`` however many deltas fit.
    """
    n_inserts, n_deletes = (3, 2) if number % 2 == 0 else (2, 3)
    n, d = dataset.n_items, dataset.n_attributes
    picked = rng.choice(n, size=n_deletes + 1, replace=False).tolist()
    inserts = tuple(tuple(row) for row in rng.random((n_inserts, d)).tolist())
    insert_types = {
        attribute: tuple(rng.choice(np.asarray(column), size=n_inserts).tolist())
        for attribute, column in dataset.types.items()
    }
    update_row = tuple(rng.random(d).tolist())
    return DatasetDelta(
        inserts=inserts,
        insert_types=insert_types,
        deletes=tuple(sorted(picked[:n_deletes])),
        updates=((picked[-1], update_row),),
    )
