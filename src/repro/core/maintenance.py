"""Typed dataset deltas and maintenance reports for build-and-maintain engines.

The engines of :mod:`repro.core.engine` historically treated preprocessing as
a one-shot offline phase: any change to the dataset meant rebuilding the index
from scratch.  This module is the vocabulary of the *build-and-maintain*
lifecycle that replaces it:

* :class:`DatasetDelta` — a validated, serialisable description of one batch
  of item mutations (inserts, deletes, score updates) against a
  :class:`~repro.data.dataset.Dataset`;
* :class:`MaintenanceReport` — what an engine's ``apply_delta`` returns:
  which strategy ran (incremental maintenance vs. full rebuild), how many
  items changed, and the staleness fraction that drove the decision.

The correctness discipline throughout is *bit-identity*: a delta-maintained
index must be indistinguishable — same answers, same oracle-call budget, same
persisted payload bytes — from an index rebuilt from scratch on the mutated
dataset.  Oracle verdicts are data-dependent, so every oracle-consuming stage
(sector evaluation, cell marking/colouring, region evaluation) re-runs in
full after a delta; what the incremental paths avoid recomputing is the
oracle-free geometry (the 2-D exchange angles, the exact engine's
arrangement tree), which is exactly the part that is safe to reuse verbatim.
Deltas apply **updates, then deletes, then inserts**: update indices and
delete indices both refer to pre-delta item positions, and inserted items are
appended after the surviving rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import DatasetError

__all__ = [
    "DatasetDelta",
    "MaintenanceReport",
    "DELTA_FORMAT",
]

#: Schema identifier written into every serialised delta.
DELTA_FORMAT = "repro.delta/v1"


def _as_score_row(row: Sequence[float], what: str) -> tuple[float, ...]:
    values = tuple(float(value) for value in row)
    if not values:
        raise DatasetError(f"{what} must contain at least one scoring value")
    if not all(np.isfinite(values)):
        raise DatasetError(f"{what} must be finite")
    if any(value < 0 for value in values):
        raise DatasetError(f"{what} must be non-negative (see paper §2)")
    return values


@dataclass(frozen=True)
class DatasetDelta:
    """One validated batch of item mutations against a dataset.

    Attributes
    ----------
    inserts:
        Scoring rows of the items to append, in append order.
    insert_types:
        Mapping from type-attribute name to one categorical value per inserted
        item.  When the target dataset carries type attributes, every one of
        them must be covered (fairness oracles consult them).
    deletes:
        Pre-delta indices of the items to remove.
    updates:
        ``(index, new_scores)`` pairs replacing the scoring row of existing
        items; indices are pre-delta positions.

    Application order is updates → deletes → inserts, so delete and update
    indices always refer to the original item positions.
    """

    inserts: tuple[tuple[float, ...], ...] = ()
    insert_types: Mapping[str, tuple] = field(default_factory=dict)
    deletes: tuple[int, ...] = ()
    updates: tuple[tuple[int, tuple[float, ...]], ...] = ()

    def __post_init__(self) -> None:
        inserts = tuple(_as_score_row(row, "an inserted item") for row in self.inserts)
        widths = {len(row) for row in inserts}
        if len(widths) > 1:
            raise DatasetError("all inserted items must share one dimension")
        deletes = tuple(int(index) for index in self.deletes)
        if any(index < 0 for index in deletes):
            raise DatasetError("delete indices must be non-negative")
        if len(set(deletes)) != len(deletes):
            raise DatasetError("delete indices must be unique")
        updates = tuple(
            (int(index), _as_score_row(row, "an updated item")) for index, row in self.updates
        )
        if any(index < 0 for index, _row in updates):
            raise DatasetError("update indices must be non-negative")
        update_indices = [index for index, _row in updates]
        if len(set(update_indices)) != len(update_indices):
            raise DatasetError("update indices must be unique")
        widths.update(len(row) for _index, row in updates)
        if len(widths) > 1:
            raise DatasetError("inserted and updated items must share one dimension")
        overlap = set(deletes) & set(update_indices)
        if overlap:
            raise DatasetError(
                f"indices {sorted(overlap)} are both updated and deleted; "
                "a delta must mutate each item at most once"
            )
        insert_types = {
            str(key): tuple(values) for key, values in dict(self.insert_types).items()
        }
        for key, values in insert_types.items():
            if len(values) != len(inserts):
                raise DatasetError(
                    f"insert_types[{key!r}] has {len(values)} values for "
                    f"{len(inserts)} inserted items"
                )
        if insert_types and not inserts:
            raise DatasetError("insert_types given without any inserted items")
        object.__setattr__(self, "inserts", inserts)
        object.__setattr__(self, "insert_types", insert_types)
        object.__setattr__(self, "deletes", deletes)
        object.__setattr__(self, "updates", updates)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def n_inserted(self) -> int:
        """Number of items the delta appends."""
        return len(self.inserts)

    @property
    def n_deleted(self) -> int:
        """Number of items the delta removes."""
        return len(self.deletes)

    @property
    def n_updated(self) -> int:
        """Number of items whose scores the delta replaces."""
        return len(self.updates)

    @property
    def n_changes(self) -> int:
        """Total number of item mutations the delta carries."""
        return self.n_inserted + self.n_deleted + self.n_updated

    @property
    def is_empty(self) -> bool:
        """True when the delta carries no mutation at all."""
        return self.n_changes == 0

    @property
    def insert_only(self) -> bool:
        """True when the delta only appends items (no deletes, no updates)."""
        return not self.deletes and not self.updates

    def staleness_fraction(self, n_items: int) -> float:
        """Fraction of the pre-delta dataset this delta mutates."""
        return self.n_changes / max(1, int(n_items))

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #
    def _check_against(self, dataset: Dataset) -> None:
        d = dataset.n_attributes
        for row in self.inserts:
            if len(row) != d:
                raise DatasetError(
                    f"inserted item has {len(row)} scoring values for a "
                    f"{d}-attribute dataset"
                )
        for index, row in self.updates:
            if index >= dataset.n_items:
                raise DatasetError(
                    f"update index {index} out of range [0, {dataset.n_items})"
                )
            if len(row) != d:
                raise DatasetError(
                    f"updated item has {len(row)} scoring values for a "
                    f"{d}-attribute dataset"
                )
        for index in self.deletes:
            if index >= dataset.n_items:
                raise DatasetError(
                    f"delete index {index} out of range [0, {dataset.n_items})"
                )
        if self.inserts:
            missing = sorted(set(dataset.type_attributes) - set(self.insert_types))
            if missing:
                raise DatasetError(
                    f"inserted items lack values for type attribute(s) {missing}; "
                    "fairness oracles consult every type attribute"
                )
            unknown = sorted(set(self.insert_types) - set(dataset.type_attributes))
            if unknown:
                raise DatasetError(
                    f"insert_types names unknown type attribute(s) {unknown}"
                )

    def apply(self, dataset: Dataset) -> Dataset:
        """Return the mutated dataset (updates → deletes → inserts).

        The original dataset is never modified; the result preserves its name
        and scoring-attribute order, so a from-scratch rebuild on the returned
        dataset is byte-identical to what a fresh engine would persist.
        """
        self._check_against(dataset)
        scores = dataset.scores.copy()
        for index, row in self.updates:
            scores[index] = row
        keep = np.ones(dataset.n_items, dtype=bool)
        if self.deletes:
            keep[list(self.deletes)] = False
        if not np.any(keep) and not self.inserts:
            raise DatasetError("a delta may not delete every item of a dataset")
        scores = scores[keep]
        types: dict[str, np.ndarray] = {
            key: np.asarray(column)[keep] for key, column in dataset.types.items()
        }
        if self.inserts:
            scores = (
                np.vstack([scores, np.asarray(self.inserts, dtype=float)])
                if scores.size
                else np.asarray(self.inserts, dtype=float)
            )
            types = {
                key: np.concatenate(
                    [column, np.asarray(self.insert_types[key], dtype=column.dtype)]
                )
                for key, column in types.items()
            }
        return Dataset(
            scores=scores,
            scoring_attributes=dataset.scoring_attributes,
            types=types,
            name=dataset.name,
        )

    def index_map(self, n_before: int) -> dict[int, int]:
        """Map pre-delta item indices to post-delta indices for surviving items.

        Deleted items are absent from the mapping; updated items survive at
        their (shifted) position.  The map is monotone, so remapping a pair
        ``(i, j)`` with ``i < j`` preserves the order of its endpoints.
        """
        deleted = set(self.deletes)
        mapping: dict[int, int] = {}
        new_index = 0
        for old_index in range(int(n_before)):
            if old_index in deleted:
                continue
            mapping[old_index] = new_index
            new_index += 1
        return mapping

    def touched_new_indices(self, n_before: int, n_after: int) -> set[int]:
        """Post-delta indices whose scoring rows differ from the pre-delta index.

        These are the updated items (remapped through :meth:`index_map`) plus
        every inserted item; any exchange pair involving one of them must be
        re-derived, while pairs between untouched items keep their geometry
        verbatim.
        """
        mapping = self.index_map(n_before)
        touched = {mapping[index] for index, _row in self.updates if index in mapping}
        touched.update(range(int(n_after) - self.n_inserted, int(n_after)))
        return touched

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Serialise the delta to a JSON-compatible dict (see :data:`DELTA_FORMAT`)."""
        return {
            "format": DELTA_FORMAT,
            "inserts": [list(row) for row in self.inserts],
            "insert_types": {
                key: [
                    value.item() if isinstance(value, np.generic) else value
                    for value in values
                ]
                for key, values in self.insert_types.items()
            },
            "deletes": list(self.deletes),
            "updates": [[index, list(row)] for index, row in self.updates],
        }


@dataclass(frozen=True)
class MaintenanceReport:
    """What one ``apply_delta`` / ``refresh`` call did to an engine's index.

    ``strategy`` is ``"incremental"`` when the oracle-free geometry was
    maintained in place, ``"rebuild"`` when the engine fell back to a full
    from-scratch preprocess (the delta exceeded
    :data:`~repro.core.engine.STALENESS_THRESHOLD`, or the engine holds no
    geometry to maintain: the approximate engine never caches any, and a
    loaded engine starts without), and ``"refresh"`` when the
    oracle-dependent stages were re-run after the oracle changed.  No wall
    clocks are recorded here, so a report depends only on the engine and the
    delta; the ``maintenance.apply_delta`` stage span carries the timing.
    """

    engine: str
    strategy: str
    n_inserted: int = 0
    n_deleted: int = 0
    n_updated: int = 0
    staleness_fraction: float = 0.0
    details: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Dashboard-ready snapshot of the report."""
        return {
            "engine": self.engine,
            "strategy": self.strategy,
            "n_inserted": self.n_inserted,
            "n_deleted": self.n_deleted,
            "n_updated": self.n_updated,
            "staleness_fraction": self.staleness_fraction,
            "details": dict(self.details),
        }

