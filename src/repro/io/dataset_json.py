"""JSON round-trip for :class:`~repro.data.dataset.Dataset`.

CSV persistence (``Dataset.to_csv`` / ``from_csv``) is convenient for
interchange with spreadsheets; the JSON form here is what an engine file
embeds so it is self-contained (carrying the exact dataset snapshot its index
was built on), and it preserves the dataset name and the distinction between
scoring and type attributes without header conventions.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import DatasetError

__all__ = ["dataset_to_dict", "dataset_from_dict", "save_dataset_json", "load_dataset_json"]

#: Schema identifier written into every serialised dataset.
DATASET_FORMAT = "repro.dataset/v1"


def dataset_to_dict(dataset: Dataset) -> dict:
    """Serialise a dataset to a JSON-compatible dictionary."""
    return {
        "format": DATASET_FORMAT,
        "name": dataset.name,
        "scoring_attributes": list(dataset.scoring_attributes),
        "scores": dataset.scores.tolist(),
        "types": {
            key: np.asarray(column).tolist() for key, column in dataset.types.items()
        },
    }


def dataset_from_dict(payload: dict) -> Dataset:
    """Rebuild a dataset from :func:`dataset_to_dict` output.

    Raises
    ------
    DatasetError
        If the payload is not a serialised dataset or is malformed.
    """
    if not isinstance(payload, dict) or payload.get("format") != DATASET_FORMAT:
        raise DatasetError(
            f"payload is not a serialised dataset (expected format {DATASET_FORMAT!r})"
        )
    try:
        return Dataset(
            scores=np.asarray(payload["scores"], dtype=float),
            scoring_attributes=list(payload["scoring_attributes"]),
            types={key: np.asarray(column) for key, column in payload.get("types", {}).items()},
            name=str(payload.get("name", "dataset")),
        )
    except KeyError as exc:
        raise DatasetError(f"serialised dataset is missing field {exc}") from exc


def save_dataset_json(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset to a JSON file."""
    Path(path).write_text(json.dumps(dataset_to_dict(dataset)), encoding="utf-8")


def load_dataset_json(path: str | Path) -> Dataset:
    """Read a dataset previously written by :func:`save_dataset_json`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path} does not contain valid JSON") from exc
    return dataset_from_dict(payload)
