"""The 2-D ray sweep against brute force on tied and degenerate data.

Every sector of the built index must carry the raw oracle's verdict on the
ordering the function at the sector's midpoint induces (``ground_truth.py``).
The table holds the inputs that put several exchanges at one angle —
duplicate rows crossed by a third item and collinear triples whose index
order differs from their rank order — beside equal-coordinate pairs, a
seeded integer grid and the smallest datasets.  Each row is swept with a
top-k count oracle (the array kernel), a prefix oracle (the per-swap loop),
their conjunction and a black-box ``CallableOracle`` (``is_satisfactory``
per sector), so all three sweep routes are checked.
"""

from __future__ import annotations

import numpy as np
import pytest
from ground_truth import exchange_angles_2d, wrong_sectors_2d

from repro.core.engine import TwoDConfig, create_engine
from repro.data.dataset import Dataset
from repro.fairness.composite import AndOracle
from repro.fairness.oracle import CallableOracle
from repro.fairness.prefix import MinimumAtEveryPrefixOracle
from repro.fairness.proportional import ProportionalOracle

TIED_DATA = {
    "exact-duplicates": [[1, 2], [1, 2], [0.5, 3], [2, 1], [0.8, 2.5]],
    # Rows that are np.allclose but not equal still cross (at π/4).
    "allclose-duplicates": [[1, 2], [1 + 5e-9, 2 - 5e-9], [0.5, 3], [2, 1]],
    # The crossing item has the lowest index, so (angle, i, j) order swaps it
    # with the farther duplicate first.
    "duplicates-crossed-from-below": [[1, 3], [2, 1], [2, 1], [3, 0], [2, 1]],
    "collinear-shuffled": [[3, 2], [1, 4], [4, 1], [2, 3]],
    "collinear-triples": [[2, 2], [0, 4], [4, 0], [1, 3], [3, 1], [1, 1], [0, 2], [2, 0]],
    "equal-x-and-equal-y": [[1, 2], [1, 3], [2, 1], [3, 1], [0, 4], [2, 2], [3, 0]],
    "integer-grid": np.random.default_rng(4).integers(0, 4, size=(30, 2)).tolist(),
    "one-item": [[0.3, 0.4]],
    "two-items": [[0.3, 0.4], [0.4, 0.3]],
}


def _oracles() -> dict:
    top_k = ProportionalOracle("group", "a", k=0.5, min_fraction=0.3, max_fraction=0.6)
    prefix = MinimumAtEveryPrefixOracle("group", "a", k=0.5, target_fraction=0.3)

    def leader_in_a(ordering, dataset) -> bool:
        return bool(dataset.types["group"][ordering[0]] == "a")

    return {
        "top-k": top_k,
        "prefix": prefix,
        "and": AndOracle([top_k, prefix]),
        "callable": CallableOracle(leader_in_a),
    }


def _dataset(scores) -> Dataset:
    scores = np.asarray(scores, dtype=float)
    types = np.array(["a", "b"] * len(scores))[: len(scores)]
    return Dataset(scores=scores, scoring_attributes=["x", "y"], types={"group": types})


@pytest.mark.parametrize("oracle_name", sorted(_oracles()))
@pytest.mark.parametrize("case", sorted(TIED_DATA))
def test_every_sector_matches_brute_force(case, oracle_name):
    dataset = _dataset(TIED_DATA[case])
    oracle = _oracles()[oracle_name]
    engine = create_engine(dataset, oracle, TwoDConfig())
    engine.preprocess()
    assert wrong_sectors_2d(engine.index, dataset, oracle) == []
    # One oracle call per sector, as the paper counts them.
    assert engine.index.oracle_calls == len(exchange_angles_2d(dataset)) + 1

