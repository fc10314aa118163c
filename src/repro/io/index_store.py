"""Serialisation of preprocessed engines to JSON ("build once, query many times").

:func:`save_engine` writes an engine's ``repro.engine/v1`` payload inside the
checksummed :data:`STORE_FORMAT` envelope, and :func:`load_engine` reads it
back; that pair is the only file format.  The payload's ``"index"`` block is
one of three index kinds, one per pipeline, each with a ``*_to_dict`` /
``*_from_dict`` pair here:

* :class:`~repro.core.two_dim.TwoDIndex` — the sorted satisfactory angular
  intervals of ``2DRAYSWEEP``;
* :class:`~repro.core.multi_dim.MDExactIndex` — the satisfactory regions of
  ``SATREGIONS`` (each region is a conjunction of half-spaces);
* :class:`~repro.core.approx.MDApproxIndex` — the per-cell assignment of the
  §5 approximation pipeline.

The 2-D and exact indexes are fully self-contained.  The approximate index
needs the dataset and the fairness oracle at query time (``MDONLINE`` first
re-checks whether the query itself is satisfactory): the engine payload
carries the preprocessing dataset, and the caller supplies the oracle.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.approx import MDApproxIndex
from repro.core.multi_dim import MDExactIndex, SatisfactoryRegion
from repro.core.two_dim import AngularInterval, TwoDIndex
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError, GeometryError, IndexIntegrityError
from repro.fairness.oracle import FairnessOracle
from repro.geometry.hyperplane import HalfSpace, Hyperplane, Region
from repro.geometry.partition import AnglePartition, AnglePartitionProtocol, UniformGridPartition
from repro.geometry.angles import to_weights
from repro.ranking.scoring import LinearScoringFunction

__all__ = [
    "two_d_index_to_dict",
    "two_d_index_from_dict",
    "exact_index_to_dict",
    "exact_index_from_dict",
    "approx_index_to_dict",
    "approx_index_from_dict",
    "save_engine",
    "load_engine",
    "payload_checksum",
    "read_store_digest",
    "STORE_FORMAT",
]

#: Schema identifier of the ``"index"`` block inside every engine payload.
INDEX_FORMAT = "repro.index/v1"

#: Schema identifier of the file-level checksum envelope.
STORE_FORMAT = "repro.store/v1"

#: Hash algorithm the envelope records (and the only one this version reads).
_STORE_ALGORITHM = "sha256"


# --------------------------------------------------------------------------- #
# checksum envelope
# --------------------------------------------------------------------------- #
def payload_checksum(payload: dict) -> str:
    """Hex SHA-256 of a payload's canonical JSON form.

    Canonical means sorted keys and no whitespace, so the digest depends only
    on the payload's *content*, not on how the surrounding file was formatted.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _wrap_payload(payload: dict) -> dict:
    """Wrap an engine payload in the versioned checksum envelope."""
    return {
        "format": STORE_FORMAT,
        "algorithm": _STORE_ALGORITHM,
        "digest": payload_checksum(payload),
        "payload": payload,
    }


_REBUILD_HINT = "the file is unusable; rebuild and re-save the index to recover"


def _read_envelope(path: str | Path) -> dict:
    """Read a store file and return its structurally checked checksum envelope.

    Raises :class:`~repro.exceptions.IndexIntegrityError` for unreadable JSON,
    a document that is not a :data:`STORE_FORMAT` envelope (a newer store
    version, or no envelope at all), an unknown algorithm, or a missing or
    mistyped ``payload`` / ``digest``.  The digest is not verified here.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IndexIntegrityError(
            f"{path} does not contain valid JSON — the file is corrupt or truncated",
            path=path,
            hint=_REBUILD_HINT,
        ) from exc
    found = document.get("format") if isinstance(document, dict) else None
    if found != STORE_FORMAT:
        if isinstance(found, str) and found.startswith("repro.store/"):
            raise IndexIntegrityError(
                f"{path} uses store format {found!r} but this version reads "
                f"{STORE_FORMAT!r}",
                path=path,
                hint="upgrade the library, or rebuild and re-save the index",
            )
        raise IndexIntegrityError(
            f"{path} is not a serialised engine (expected a {STORE_FORMAT!r} "
            f"envelope, found format {found!r})",
            path=path,
            hint=_REBUILD_HINT,
        )
    algorithm = document.get("algorithm")
    if algorithm != _STORE_ALGORITHM:
        raise IndexIntegrityError(
            f"{path} declares unsupported checksum algorithm {algorithm!r}",
            path=path,
            hint=_REBUILD_HINT,
        )
    if not isinstance(document.get("payload"), dict) or not isinstance(
        document.get("digest"), str
    ):
        raise IndexIntegrityError(
            f"{path} has a malformed checksum envelope "
            "(missing or mistyped 'payload'/'digest')",
            path=path,
            hint=_REBUILD_HINT,
        )
    return document


def read_store_digest(path: str | Path) -> str:
    """The checksum envelope's recorded digest of a store file.

    Returns the ``digest`` field of a :data:`STORE_FORMAT` envelope without
    verifying or reconstructing the payload — enough for a serving pool to
    pin the exact index bytes every worker must load (each worker compares
    this digest and the full :func:`load_engine` verification still runs on
    load).  Raises :class:`~repro.exceptions.IndexIntegrityError` when the
    file is not a well-formed envelope.
    """
    return _read_envelope(path)["digest"]


def _read_payload(path: str | Path) -> dict:
    """Read a store file and return its payload once the digest verifies.

    Raises :class:`~repro.exceptions.IndexIntegrityError` — never returns a
    partially-validated payload — for everything :func:`_read_envelope`
    rejects and for a digest that does not match the payload bytes.
    """
    document = _read_envelope(path)
    payload, digest = document["payload"], document["digest"]
    actual = payload_checksum(payload)
    if actual != digest:
        raise IndexIntegrityError(
            f"{path} failed its integrity check: stored digest {digest[:12]}… "
            f"does not match the payload's {actual[:12]}… — the file was "
            "corrupted or hand-edited",
            path=path,
            hint=_REBUILD_HINT,
        )
    return payload


# --------------------------------------------------------------------------- #
# 2-D index
# --------------------------------------------------------------------------- #
def two_d_index_to_dict(index: TwoDIndex) -> dict:
    """Serialise a 2-D ray-sweep index."""
    return {
        "format": INDEX_FORMAT,
        "index_kind": "2d",
        "intervals": [[interval.start, interval.end] for interval in index.intervals],
        "n_exchanges": index.n_exchanges,
        "oracle_calls": index.oracle_calls,
    }


def two_d_index_from_dict(payload: dict) -> TwoDIndex:
    """Rebuild a 2-D index from :func:`two_d_index_to_dict` output."""
    _check_payload(payload, "2d")
    return TwoDIndex(
        intervals=[AngularInterval(float(start), float(end)) for start, end in payload["intervals"]],
        n_exchanges=int(payload.get("n_exchanges", 0)),
        oracle_calls=int(payload.get("oracle_calls", 0)),
    )


# --------------------------------------------------------------------------- #
# exact multi-dimensional index
# --------------------------------------------------------------------------- #
def _half_space_to_dict(half_space: HalfSpace) -> dict:
    return {
        "coefficients": list(half_space.hyperplane.coefficients),
        "label": list(half_space.hyperplane.label) if half_space.hyperplane.label else None,
        "sign": half_space.sign,
    }


def _half_space_from_dict(payload: dict) -> HalfSpace:
    label = tuple(payload["label"]) if payload.get("label") else None
    hyperplane = Hyperplane(tuple(float(c) for c in payload["coefficients"]), label=label)
    return HalfSpace(hyperplane, int(payload["sign"]))


def exact_index_to_dict(index: MDExactIndex) -> dict:
    """Serialise a ``SATREGIONS`` index (regions, representatives and statistics)."""
    regions = []
    for satisfactory in index.satisfactory_regions:
        regions.append(
            {
                "half_spaces": [
                    _half_space_to_dict(half_space)
                    for half_space in satisfactory.region.half_spaces
                ],
                "representative_angles": list(satisfactory.representative_angles),
            }
        )
    return {
        "format": INDEX_FORMAT,
        "index_kind": "exact",
        "dimension": index.dimension,
        "satisfactory_regions": regions,
        "n_hyperplanes": index.n_hyperplanes,
        "n_regions": index.n_regions,
        "oracle_calls": index.oracle_calls,
    }


def exact_index_from_dict(payload: dict) -> MDExactIndex:
    """Rebuild an exact index from :func:`exact_index_to_dict` output."""
    _check_payload(payload, "exact")
    dimension = int(payload["dimension"])
    regions: list[SatisfactoryRegion] = []
    for entry in payload["satisfactory_regions"]:
        half_spaces = [_half_space_from_dict(item) for item in entry["half_spaces"]]
        angles = tuple(float(value) for value in entry["representative_angles"])
        regions.append(
            SatisfactoryRegion(
                region=Region(dimension, half_spaces),
                representative_angles=angles,
                representative=LinearScoringFunction(
                    tuple(to_weights(np.asarray(angles, dtype=float)))
                ),
            )
        )
    return MDExactIndex(
        dimension=dimension,
        satisfactory_regions=regions,
        n_hyperplanes=int(payload.get("n_hyperplanes", 0)),
        n_regions=int(payload.get("n_regions", 0)),
        oracle_calls=int(payload.get("oracle_calls", 0)),
    )


# --------------------------------------------------------------------------- #
# approximate (grid) index
# --------------------------------------------------------------------------- #
def _partition_to_dict(partition: AnglePartitionProtocol) -> dict:
    if isinstance(partition, UniformGridPartition):
        return {
            "kind": "uniform",
            "dimension": partition.dimension,
            "n_cells": partition.n_cells,
        }
    if isinstance(partition, AnglePartition):
        return {
            "kind": "angle",
            "dimension": partition.dimension,
            "target_cells": partition.target_cells,
        }
    raise ConfigurationError(
        f"cannot serialise partition of type {type(partition).__name__}; "
        "only the built-in uniform and angle partitions are supported"
    )


def _partition_from_dict(payload: dict) -> AnglePartitionProtocol:
    kind = payload.get("kind")
    dimension = int(payload["dimension"])
    if kind == "uniform":
        return UniformGridPartition(dimension, int(payload["n_cells"]))
    if kind == "angle":
        return AnglePartition(dimension, int(payload["target_cells"]))
    raise ConfigurationError(f"unknown serialised partition kind {kind!r}")


def approx_index_to_dict(index: MDApproxIndex) -> dict:
    """Serialise an approximate (per-cell) index.

    The dataset is not stored here (the engine payload carries it once), and
    neither is the per-cell hyperplane assignment — a preprocessing artefact
    that online answering never touches.
    """
    return {
        "format": INDEX_FORMAT,
        "index_kind": "approx",
        "partition": _partition_to_dict(index.partition),
        "assigned_angles": [
            None if angles is None else np.asarray(angles, dtype=float).tolist()
            for angles in index.assigned_angles
        ],
        "marked": [bool(flag) for flag in index.marked],
        "n_hyperplanes": index.n_hyperplanes,
        "oracle_calls": index.oracle_calls,
    }


def approx_index_from_dict(
    payload: dict, oracle: FairnessOracle, dataset: Dataset
) -> MDApproxIndex:
    """Rebuild an approximate index for online answering.

    Parameters
    ----------
    payload:
        Output of :func:`approx_index_to_dict`.  Keys it does not read, such
        as the ``timings`` block older versions wrote, are ignored.
    oracle:
        The fairness oracle (``MDONLINE`` re-checks queries against it).
    dataset:
        The dataset to answer queries over (the engine's preprocessing
        dataset).

    Raises
    ------
    ConfigurationError
        If the partition does not match the dataset's dimensionality.
    GeometryError
        If the stored cell assignment does not match the reconstructed
        partition.
    """
    _check_payload(payload, "approx")
    partition = _partition_from_dict(payload["partition"])
    if partition.dimension != dataset.n_attributes - 1:
        raise ConfigurationError(
            f"index partition has dimension {partition.dimension} but the dataset has "
            f"{dataset.n_attributes} scoring attributes"
        )
    assigned_payload = payload["assigned_angles"]
    if len(assigned_payload) != partition.n_cells:
        raise GeometryError(
            f"stored assignment covers {len(assigned_payload)} cells but the reconstructed "
            f"partition has {partition.n_cells}"
        )
    assigned = [
        None if angles is None else np.asarray(angles, dtype=float) for angles in assigned_payload
    ]
    marked = [bool(flag) for flag in payload.get("marked", [False] * len(assigned))]
    return MDApproxIndex(
        dataset=dataset,
        oracle=oracle,
        partition=partition,
        assigned_angles=assigned,
        marked=marked,
        cell_plane_index=None,
        n_hyperplanes=int(payload.get("n_hyperplanes", 0)),
        oracle_calls=int(payload.get("oracle_calls", 0)),
    )


# --------------------------------------------------------------------------- #
# engine-level persistence ("preprocess once, serve many")
# --------------------------------------------------------------------------- #
def save_engine(engine, path: str | Path) -> None:
    """Write a preprocessed :class:`~repro.core.engine.QueryEngine` to a JSON file.

    The payload bundles the engine name, its typed configuration, the offline
    index, and the preprocessing dataset (the sample when sampling was used),
    so :func:`load_engine` restores an engine that answers queries
    bit-identically without re-preprocessing.  A maintained engine is saved
    as a snapshot of its current index: the file is byte-identical to one
    saved from a fresh rebuild on the mutated dataset.  The payload is
    wrapped in the :data:`STORE_FORMAT` checksum envelope so
    :func:`load_engine` can detect corruption.
    """
    Path(path).write_text(
        json.dumps(_wrap_payload(engine.to_payload())), encoding="utf-8"
    )


def load_engine(path: str | Path, oracle: FairnessOracle):
    """Read an engine file, dispatching on the engine name stored inside it.

    The fairness oracle is supplied by the caller (oracles are arbitrary code
    and are never serialised).  The file must be a :data:`STORE_FORMAT`
    envelope around a ``repro.engine/v1`` payload, as :func:`save_engine`
    writes it.  A file that fails the envelope's checks — unreadable JSON, no
    envelope, another store version, a digest mismatch — raises a typed
    :class:`~repro.exceptions.IndexIntegrityError` with a rebuild hint; a
    verified payload that is not an engine payload, or whose schema is
    broken, raises :class:`ConfigurationError`.  A file in a format this
    version no longer reads gets one of these errors naming the format it
    expected.
    """
    # Imported lazily: repro.core.engine imports this module's serialisers
    # inside its persistence hooks, so a module-level import would be cyclic.
    from repro.core.engine import ENGINE_FORMAT, engine_from_payload

    payload = _read_payload(path)
    if payload.get("format") != ENGINE_FORMAT:
        raise ConfigurationError(
            f"{path} is not a serialised engine (expected format {ENGINE_FORMAT!r}, "
            f"found {payload.get('format')!r})"
        )
    try:
        return engine_from_payload(payload, oracle)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        # A verified checksum rules corruption out: the payload is malformed
        # at the schema level (likely hand-built or from a different tool).
        raise ConfigurationError(
            f"{path} holds a {payload.get('engine')!r} engine whose payload is "
            f"malformed: {exc}"
        ) from exc


def _check_payload(payload: dict, expected_kind: str) -> None:
    if not isinstance(payload, dict) or payload.get("format") != INDEX_FORMAT:
        raise ConfigurationError(
            f"payload is not a serialised index (expected format {INDEX_FORMAT!r})"
        )
    if payload.get("index_kind") != expected_kind:
        raise ConfigurationError(
            f"payload holds a {payload.get('index_kind')!r} index, expected {expected_kind!r}"
        )
