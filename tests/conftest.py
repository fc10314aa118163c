"""Shared fixtures for the test suite.

The fixtures build deliberately small datasets so that even the exact
multi-dimensional algorithms (which are polynomial but with a large exponent)
run in a fraction of a second per test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.synthetic import make_compas_like
from repro.fairness.proportional import ProportionalOracle, TopKGroupBoundOracle


@pytest.fixture
def paper_2d_dataset() -> Dataset:
    """The 5-point 2-D dataset of the paper's Figure 3."""
    scores = np.array(
        [
            [1.0, 3.5],
            [1.5, 3.1],
            [1.91, 2.3],
            [2.3, 1.8],
            [3.2, 0.9],
        ]
    )
    types = {"color": np.array(["blue", "orange", "orange", "blue", "orange"])}
    return Dataset(scores=scores, scoring_attributes=["x", "y"], types=types, name="figure3")


@pytest.fixture
def paper_3d_dataset() -> Dataset:
    """The 4-point 3-D dataset of the paper's Figure 7."""
    scores = np.array(
        [
            [1.0, 2.0, 3.0],
            [2.0, 4.0, 1.0],
            [5.3, 1.0, 6.0],
            [3.0, 7.2, 2.0],
        ]
    )
    types = {"group": np.array(["a", "b", "a", "b"])}
    return Dataset(scores=scores, scoring_attributes=["x", "y", "z"], types=types, name="figure7")


@pytest.fixture
def small_compas_2d() -> Dataset:
    """A small COMPAS-like dataset restricted to two scoring attributes."""
    return make_compas_like(n=80, seed=3).project(["c_days_from_compas", "juv_other_count"])


@pytest.fixture
def small_compas_3d() -> Dataset:
    """A small COMPAS-like dataset restricted to three scoring attributes."""
    return make_compas_like(n=40, seed=3).project(
        ["c_days_from_compas", "juv_other_count", "start"]
    )


@pytest.fixture
def race_oracle_2d(small_compas_2d) -> ProportionalOracle:
    """The paper's default FM1 constraint on the small 2-D dataset."""
    return ProportionalOracle.at_most_share_plus_slack(
        small_compas_2d, "race", "African-American", k=0.3, slack=0.10
    )


@pytest.fixture
def race_oracle_3d(small_compas_3d) -> ProportionalOracle:
    """The paper's default FM1 constraint on the small 3-D dataset."""
    return ProportionalOracle.at_most_share_plus_slack(
        small_compas_3d, "race", "African-American", k=0.3, slack=0.10
    )


@pytest.fixture
def balanced_topk_oracle() -> TopKGroupBoundOracle:
    """The Figure 1 example constraint: at most 2 orange items in the top 4."""
    return TopKGroupBoundOracle("color", "orange", k=4, max_count=2)


@pytest.fixture(scope="session")
def shared_compas_3d() -> Dataset:
    """Session-scoped small COMPAS-like 3-D dataset for tests that share an index."""
    return make_compas_like(n=60, seed=7).project(
        ["c_days_from_compas", "juv_other_count", "start"]
    )


@pytest.fixture(scope="session")
def shared_race_oracle_3d(shared_compas_3d) -> ProportionalOracle:
    """FM1 constraint matching :func:`shared_compas_3d`."""
    return ProportionalOracle.at_most_share_plus_slack(
        shared_compas_3d, "race", "African-American", k=0.3, slack=0.10
    )


@pytest.fixture(scope="session")
def shared_approx_index(shared_compas_3d, shared_race_oracle_3d):
    """A small preprocessed approximate index, built once for the whole test session."""
    from repro.core.approx import ApproximatePreprocessor

    return ApproximatePreprocessor(
        shared_compas_3d, shared_race_oracle_3d, n_cells=64, max_hyperplanes=60
    ).run()


@pytest.fixture(scope="session")
def shared_two_d_index(shared_compas_3d, shared_race_oracle_3d):
    """A small preprocessed 2-D index (first two attributes), built once per session."""
    from repro.core.two_dim import TwoDRaySweep
    from repro.fairness.proportional import ProportionalOracle as _Oracle

    dataset = shared_compas_3d.project(["c_days_from_compas", "juv_other_count"])
    oracle = _Oracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.10
    )
    return dataset, oracle, TwoDRaySweep(dataset, oracle).run()


class TickingClock:
    """A clock that advances one whole tick on every read.

    Under it a span's duration counts the clock reads made inside the span
    plus one, so a reported duration that is not a whole number of ticks
    came from some other clock.
    """

    def __init__(self) -> None:
        self.ticks = 0.0

    def __call__(self) -> float:
        self.ticks += 1.0
        return self.ticks


@pytest.fixture
def ticking_clock() -> TickingClock:
    """A fresh :class:`TickingClock`."""
    return TickingClock()
