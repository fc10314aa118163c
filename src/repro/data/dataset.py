"""Dataset container used throughout the library.

The paper's data model (§2) is a set of *n* items, each carrying:

* ``d`` scalar, non-negative **scoring attributes** (larger is better), and
* zero or more categorical **type attributes** (protected features such as
  sex, race, or age group) that are consulted only by fairness oracles.

:class:`Dataset` wraps a dense ``numpy`` matrix of scoring attributes and a
dictionary of type-attribute columns, and provides the normalisation,
projection, sampling and validation primitives every other subsystem builds
on.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import DatasetError, SchemaError

__all__ = ["Dataset", "normalize_minmax"]


def normalize_minmax(values: np.ndarray) -> np.ndarray:
    """Min-max normalise a 1-D array to ``[0, 1]``.

    The paper normalises every scoring attribute as ``(val - min) / (max - min)``
    (§6.1).  A constant column maps to all zeros instead of dividing by zero.

    Parameters
    ----------
    values:
        One-dimensional numeric array.

    Returns
    -------
    numpy.ndarray
        Array of the same shape with values in ``[0, 1]``.
    """
    values = np.asarray(values, dtype=float)
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


@dataclass
class Dataset:
    """An immutable table of items with scoring and type attributes.

    Parameters
    ----------
    scores:
        ``(n, d)`` array of non-negative scoring-attribute values.  Rows are
        items, columns are attributes; larger values are preferred.
    scoring_attributes:
        Names of the ``d`` scoring attributes, in column order.
    types:
        Mapping from type-attribute name to a length-``n`` sequence of
        categorical labels (any hashable values).
    name:
        Optional human-readable dataset name, used in reports.
    """

    scores: np.ndarray
    scoring_attributes: Sequence[str]
    types: Mapping[str, Sequence] = field(default_factory=dict)
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=float)
        if self.scores.ndim != 2:
            raise DatasetError(
                f"scores must be a 2-D array, got shape {self.scores.shape}"
            )
        n, d = self.scores.shape
        if n == 0 or d == 0:
            raise DatasetError("dataset must contain at least one item and one attribute")
        self.scoring_attributes = list(self.scoring_attributes)
        if len(self.scoring_attributes) != d:
            raise SchemaError(
                f"{d} scoring columns but {len(self.scoring_attributes)} attribute names"
            )
        if len(set(self.scoring_attributes)) != d:
            raise SchemaError("scoring attribute names must be unique")
        if not np.all(np.isfinite(self.scores)):
            raise DatasetError("scoring attributes must be finite")
        if np.any(self.scores < 0):
            raise DatasetError("scoring attributes must be non-negative (see paper §2)")
        self.types = {key: np.asarray(col) for key, col in dict(self.types).items()}
        for key, col in self.types.items():
            if len(col) != n:
                raise SchemaError(
                    f"type attribute {key!r} has {len(col)} values for {n} items"
                )

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def n_items(self) -> int:
        """Number of items (rows)."""
        return int(self.scores.shape[0])

    @property
    def n_attributes(self) -> int:
        """Number of scoring attributes ``d``."""
        return int(self.scores.shape[1])

    @property
    def type_attributes(self) -> list[str]:
        """Names of the categorical type attributes."""
        return list(self.types.keys())

    @cached_property
    def has_duplicate_scores(self) -> bool:
        """Whether two items have equal score vectors (``-0.0 == 0.0``).

        Every scoring function ties such a pair, so a batched ordering of this
        dataset (:func:`repro.ranking.scoring.order_many`) sorts every row
        stably at once instead of looking for ties row by row.
        """
        rows = self.scores[np.lexsort(self.scores.T)]
        return bool((rows[1:] == rows[:-1]).all(axis=1).any())

    def __len__(self) -> int:
        return self.n_items

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dataset(name={self.name!r}, n_items={self.n_items}, "
            f"scoring={list(self.scoring_attributes)}, types={self.type_attributes})"
        )

    # ------------------------------------------------------------------ #
    # attribute access
    # ------------------------------------------------------------------ #
    def column(self, attribute: str) -> np.ndarray:
        """Return one scoring-attribute column by name."""
        try:
            idx = list(self.scoring_attributes).index(attribute)
        except ValueError as exc:
            raise SchemaError(f"unknown scoring attribute {attribute!r}") from exc
        return self.scores[:, idx]

    def type_column(self, attribute: str) -> np.ndarray:
        """Return one type-attribute column by name."""
        if attribute not in self.types:
            raise SchemaError(f"unknown type attribute {attribute!r}")
        return np.asarray(self.types[attribute])

    def item(self, index: int) -> np.ndarray:
        """Return the scoring vector of a single item."""
        if not 0 <= index < self.n_items:
            raise DatasetError(f"item index {index} out of range [0, {self.n_items})")
        return self.scores[index]

    def group_proportions(self, attribute: str) -> dict:
        """Return the fraction of items carrying each value of a type attribute.

        Useful for stating proportionality constraints relative to the dataset
        composition, as the paper does ("at most 10% more than in D").
        """
        col = self.type_column(attribute)
        values, counts = np.unique(col, return_counts=True)
        total = float(len(col))
        return {value: count / total for value, count in zip(values.tolist(), counts.tolist())}

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #
    def project(self, attributes: Sequence[str], name: str | None = None) -> "Dataset":
        """Return a new dataset restricted to the given scoring attributes.

        Type attributes are carried over unchanged.  The paper's experiments
        repeatedly select 2, 3, ... 6 scoring attributes from COMPAS; this is
        the operation that performs that selection.
        """
        attributes = list(attributes)
        if not attributes:
            raise SchemaError("projection requires at least one attribute")
        columns = [self.column(a) for a in attributes]
        return Dataset(
            scores=np.column_stack(columns),
            scoring_attributes=attributes,
            types=self.types,
            name=name or f"{self.name}[{','.join(attributes)}]",
        )

    def take(self, indices: Iterable[int], name: str | None = None) -> "Dataset":
        """Return a new dataset containing only the items at ``indices``."""
        index_array = np.asarray(list(indices), dtype=int)
        if index_array.size == 0:
            raise DatasetError("cannot take an empty subset of a dataset")
        if np.any(index_array < 0) or np.any(index_array >= self.n_items):
            raise DatasetError("subset indices out of range")
        return Dataset(
            scores=self.scores[index_array],
            scoring_attributes=self.scoring_attributes,
            types={key: np.asarray(col)[index_array] for key, col in self.types.items()},
            name=name or f"{self.name}[subset:{index_array.size}]",
        )

    def head(self, count: int) -> "Dataset":
        """Return the first ``count`` items."""
        if count <= 0:
            raise DatasetError("head() requires a positive count")
        return self.take(range(min(count, self.n_items)), name=f"{self.name}[head:{count}]")

    def sample(self, size: int, seed: int | None = None, name: str | None = None) -> "Dataset":
        """Return ``size`` items sampled uniformly at random without replacement.

        This is the sampling primitive behind §5.4 ("Sampling for large-scale
        settings"): preprocess on a uniform sample, then validate on the full
        dataset.
        """
        if size <= 0:
            raise DatasetError("sample size must be positive")
        if size > self.n_items:
            raise DatasetError(
                f"cannot sample {size} items from a dataset of {self.n_items}"
            )
        rng = np.random.default_rng(seed)
        indices = rng.choice(self.n_items, size=size, replace=False)
        return self.take(indices, name=name or f"{self.name}[sample:{size}]")

    def normalized(self, invert: Sequence[str] = ()) -> "Dataset":
        """Return a copy with every scoring attribute min-max normalised to [0, 1].

        Parameters
        ----------
        invert:
            Attribute names for which *smaller* raw values are better (the paper
            inverts ``age`` in §6.1).  Those columns are normalised and then
            flipped as ``1 - x`` so that, as the data model requires, larger
            normalised values are preferred.
        """
        invert_set = set(invert)
        unknown = invert_set.difference(self.scoring_attributes)
        if unknown:
            raise SchemaError(f"cannot invert unknown attributes: {sorted(unknown)}")
        columns = []
        for position, attribute in enumerate(self.scoring_attributes):
            column = normalize_minmax(self.scores[:, position])
            if attribute in invert_set:
                column = 1.0 - column
            columns.append(column)
        return Dataset(
            scores=np.column_stack(columns),
            scoring_attributes=self.scoring_attributes,
            types=self.types,
            name=f"{self.name}[normalized]",
        )

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def to_csv(self, path: str) -> None:
        """Write the dataset (scoring then type columns) to a CSV file."""
        header = list(self.scoring_attributes) + [f"type:{key}" for key in self.types]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            type_columns = [np.asarray(col) for col in self.types.values()]
            for row_index in range(self.n_items):
                row = [repr(float(v)) for v in self.scores[row_index]]
                row.extend(str(col[row_index]) for col in type_columns)
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path: str, name: str | None = None) -> "Dataset":
        """Read a dataset previously written by :meth:`to_csv`.

        Columns whose header starts with ``type:`` become type attributes; all
        other columns are parsed as float scoring attributes.
        """
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration as exc:
                raise DatasetError(f"CSV file {path!r} is empty") from exc
            rows = [row for row in reader if row]
        if not rows:
            raise DatasetError(f"CSV file {path!r} contains no data rows")
        scoring_names = [h for h in header if not h.startswith("type:")]
        type_names = [h[len("type:"):] for h in header if h.startswith("type:")]
        scoring_positions = [i for i, h in enumerate(header) if not h.startswith("type:")]
        type_positions = [i for i, h in enumerate(header) if h.startswith("type:")]
        scores = np.array(
            [[float(row[i]) for i in scoring_positions] for row in rows], dtype=float
        )
        types = {
            type_name: np.array([row[i] for row in rows])
            for type_name, i in zip(type_names, type_positions)
        }
        return cls(
            scores=scores,
            scoring_attributes=scoring_names,
            types=types,
            name=name or path,
        )
