"""Scalar per-pair references for the exchange builders of :mod:`repro.geometry.dual`.

The production builders enumerate pairs with broadcast dominance kernels and
construct exchanges in batches; these loops test one pair at a time with
:func:`~repro.geometry.dual.has_exchange` and build each exchange with the
scalar primitive.  Tests compare the two with ``==``: the batched kernels
must reproduce these references bit for bit.  Benchmarks import this module
after putting ``tests/`` on ``sys.path``.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import GeometryError
from repro.geometry.dual import ExchangeArrays, exchange_angle_2d, has_exchange, hyperpolar
from repro.geometry.hyperplane import Hyperplane

__all__ = [
    "build_exchange_angles_2d_reference",
    "build_exchange_hyperplanes_reference",
    "exchange_rows",
]


def build_exchange_angles_2d_reference(dataset: Dataset) -> ExchangeArrays:
    """Scalar per-pair reference of :func:`repro.geometry.dual.exchange_arrays_2d`."""
    if dataset.n_attributes != 2:
        raise GeometryError("build_exchange_angles_2d_reference requires a 2-attribute dataset")
    scores = dataset.scores
    angles: list[float] = []
    first: list[int] = []
    second: list[int] = []
    n = dataset.n_items
    for i in range(n - 1):
        for j in range(i + 1, n):
            if not has_exchange(scores[i], scores[j]):
                continue
            angles.append(exchange_angle_2d(scores[i], scores[j]))
            first.append(i)
            second.append(j)
    return (
        np.array(angles, dtype=float),
        np.array(first, dtype=np.intp),
        np.array(second, dtype=np.intp),
    )


def build_exchange_hyperplanes_reference(
    dataset: Dataset, item_indices: np.ndarray | None = None
) -> list[Hyperplane]:
    """Scalar per-pair reference of :func:`repro.geometry.dual.hyperplanes_for_dataset`."""
    if dataset.n_attributes < 3:
        raise GeometryError("build_exchange_hyperplanes_reference requires d >= 3")
    if item_indices is None:
        indices = np.arange(dataset.n_items)
    else:
        indices = np.asarray(item_indices, dtype=int)
    scores = dataset.scores
    hyperplanes: list[Hyperplane] = []
    for position_i in range(indices.size - 1):
        i = int(indices[position_i])
        for position_j in range(position_i + 1, indices.size):
            j = int(indices[position_j])
            if not has_exchange(scores[i], scores[j]):
                continue
            hyperplanes.append(hyperpolar(scores[i], scores[j], label=(i, j)))
    return hyperplanes


def exchange_rows(exchanges: ExchangeArrays) -> list[tuple[float, int, int]]:
    """The ``(angle, i, j)`` rows of exchange arrays in array order, for ``==`` checks."""
    angles, first, second = exchanges
    return list(zip(angles.tolist(), first.tolist(), second.tolist()))
