"""Serialisation of offline indexes to JSON ("build once, query many times").

Three index kinds exist, one per pipeline:

* :class:`~repro.core.two_dim.TwoDIndex` — the sorted satisfactory angular
  intervals of ``2DRAYSWEEP``;
* :class:`~repro.core.multi_dim.MDExactIndex` — the satisfactory regions of
  ``SATREGIONS`` (each region is a conjunction of half-spaces);
* :class:`~repro.core.approx.MDApproxIndex` — the per-cell assignment of the
  §5 approximation pipeline.

The 2-D and exact indexes are fully self-contained.  The approximate index
needs the dataset and the fairness oracle at query time (``MDONLINE`` first
re-checks whether the query itself is satisfactory), so loading it requires
the caller to supply them — optionally the dataset snapshot can be embedded in
the file so only the oracle has to be reconstructed.
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
from repro.io.dataset_json import dataset_from_dict, dataset_to_dict
from repro.ranking.scoring import LinearScoringFunction

__all__ = [
    "two_d_index_to_dict",
    "two_d_index_from_dict",
    "exact_index_to_dict",
    "exact_index_from_dict",
    "approx_index_to_dict",
    "approx_index_from_dict",
    "save_index",
    "load_index",
    "save_engine",
    "load_engine",
    "payload_checksum",
    "read_store_digest",
    "STORE_FORMAT",
    "ENGINE_JOURNAL_FORMAT",
]

#: Schema identifier written into every serialised index.
INDEX_FORMAT = "repro.index/v1"

#: Schema identifier of the file-level checksum envelope.
STORE_FORMAT = "repro.store/v1"

#: Hash algorithm the envelope records (and the only one this version reads).
_STORE_ALGORITHM = "sha256"

#: Schema identifier of a journaled engine payload (base snapshot + deltas).
ENGINE_JOURNAL_FORMAT = "repro.engine-journal/v1"


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
    """Wrap an index/engine payload in the versioned checksum envelope."""
    return {
        "format": STORE_FORMAT,
        "algorithm": _STORE_ALGORITHM,
        "digest": payload_checksum(payload),
        "payload": payload,
    }


def read_store_digest(path: str | Path) -> str | None:
    """The checksum envelope's recorded digest of a store file, or ``None``.

    Returns the ``digest`` field of a :data:`STORE_FORMAT` envelope without
    reconstructing the payload — enough for a serving pool to pin the exact
    index bytes every worker must load (each worker compares this digest and
    the full :func:`load_engine` verification still runs on load).  Returns
    ``None`` for pre-envelope files; raises
    :class:`~repro.exceptions.IndexIntegrityError` for unreadable JSON.
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
    if not isinstance(document, dict) or document.get("format") != STORE_FORMAT:
        return None
    digest = document.get("digest")
    return digest if isinstance(digest, str) else None


_REBUILD_HINT = "the file is unusable; rebuild and re-save the index to recover"


def _unwrap_payload(document, path):
    """Verify and strip the checksum envelope; pass legacy bare payloads through.

    Raises :class:`~repro.exceptions.IndexIntegrityError` — never returns a
    partially-validated payload — when the envelope announces a newer store
    version, an unknown algorithm, a malformed structure, or a digest that
    does not match the payload bytes.
    """
    if not isinstance(document, dict) or not str(document.get("format", "")).startswith(
        "repro.store/"
    ):
        # Pre-envelope file (or a bare payload dict): served unchanged so
        # indexes saved before checksumming keep loading.
        return document
    if document["format"] != STORE_FORMAT:
        raise IndexIntegrityError(
            f"{path} uses store format {document['format']!r} but this version "
            f"reads {STORE_FORMAT!r}",
            path=path,
            hint="upgrade the library, or rebuild and re-save the index",
        )
    algorithm = document.get("algorithm")
    if algorithm != _STORE_ALGORITHM:
        raise IndexIntegrityError(
            f"{path} declares unsupported checksum algorithm {algorithm!r}",
            path=path,
            hint=_REBUILD_HINT,
        )
    payload = document.get("payload")
    digest = document.get("digest")
    if not isinstance(payload, dict) or not isinstance(digest, str):
        raise IndexIntegrityError(
            f"{path} has a malformed checksum envelope "
            "(missing or mistyped 'payload'/'digest')",
            path=path,
            hint=_REBUILD_HINT,
        )
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


def _read_document(path: str | Path):
    """Read a JSON store file and return its verified payload."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IndexIntegrityError(
            f"{path} does not contain valid JSON — the file is corrupt or truncated",
            path=path,
            hint=_REBUILD_HINT,
        ) from exc
    return _unwrap_payload(document, path)


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


def approx_index_to_dict(index: MDApproxIndex, include_dataset: bool = False) -> dict:
    """Serialise an approximate (per-cell) index.

    Parameters
    ----------
    index:
        The preprocessed index.
    include_dataset:
        If True, embed the dataset snapshot the index was built against so
        loading only needs the fairness oracle.  The per-cell hyperplane
        assignment is not stored — it is a preprocessing artefact that online
        answering never touches.
    """
    payload = {
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
    if include_dataset:
        payload["dataset"] = dataset_to_dict(index.dataset)
    return payload


def approx_index_from_dict(
    payload: dict,
    oracle: FairnessOracle,
    dataset: Dataset | None = None,
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
        The dataset to answer queries over.  May be omitted when the payload
        embeds the dataset (``include_dataset=True`` at save time).

    Raises
    ------
    ConfigurationError
        If no dataset is available, or the partition does not match the
        dataset's dimensionality, or the stored cell assignment does not match
        the reconstructed partition.
    """
    _check_payload(payload, "approx")
    if dataset is None:
        embedded = payload.get("dataset")
        if embedded is None:
            raise ConfigurationError(
                "loading an approximate index requires a dataset "
                "(none was supplied and none is embedded in the file)"
            )
        dataset = dataset_from_dict(embedded)
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
# file-level helpers
# --------------------------------------------------------------------------- #
def save_index(
    index: TwoDIndex | MDExactIndex | MDApproxIndex,
    path: str | Path,
    include_dataset: bool = False,
) -> None:
    """Write any index kind to a JSON file.

    ``include_dataset`` only affects approximate indexes (the other kinds are
    self-contained).
    """
    if isinstance(index, TwoDIndex):
        payload = two_d_index_to_dict(index)
    elif isinstance(index, MDExactIndex):
        payload = exact_index_to_dict(index)
    elif isinstance(index, MDApproxIndex):
        payload = approx_index_to_dict(index, include_dataset=include_dataset)
    else:
        raise ConfigurationError(f"cannot serialise index of type {type(index).__name__}")
    Path(path).write_text(json.dumps(_wrap_payload(payload)), encoding="utf-8")


def load_index(
    path: str | Path,
    oracle: FairnessOracle | None = None,
    dataset: Dataset | None = None,
) -> TwoDIndex | MDExactIndex | MDApproxIndex:
    """Read an index file, dispatching on its stored kind.

    2-D and exact indexes ignore ``oracle`` and ``dataset``; approximate
    indexes require an oracle and either a dataset argument or an embedded
    dataset snapshot.

    Files written by this version carry a checksum envelope
    (:data:`STORE_FORMAT`); corruption — truncation, bit flips, hand edits —
    raises a typed :class:`~repro.exceptions.IndexIntegrityError` with a
    rebuild hint instead of surfacing as an arbitrary reconstruction error.
    Pre-envelope files still load.
    """
    payload = _read_document(path)
    kind = payload.get("index_kind") if isinstance(payload, dict) else None
    try:
        if kind == "2d":
            return two_d_index_from_dict(payload)
        if kind == "exact":
            return exact_index_from_dict(payload)
        if kind == "approx":
            if oracle is None:
                raise ConfigurationError(
                    "loading an approximate index requires a fairness oracle"
                )
            return approx_index_from_dict(payload, oracle=oracle, dataset=dataset)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        # A verified checksum rules corruption out: the payload is malformed
        # at the schema level (likely hand-built or from a different tool).
        raise ConfigurationError(
            f"{path} holds a {kind!r} index whose payload is malformed: {exc}"
        ) from exc
    raise ConfigurationError(f"{path} is not a serialised repro index (kind={kind!r})")


# --------------------------------------------------------------------------- #
# engine-level persistence ("preprocess once, serve many")
# --------------------------------------------------------------------------- #
def save_engine(engine, path: str | Path, *, journaled: bool = False) -> None:
    """Write a preprocessed :class:`~repro.core.engine.QueryEngine` to a JSON file.

    The payload bundles the engine name, its typed configuration, the offline
    index, and the preprocessing dataset (the sample when sampling was used),
    so :func:`load_engine` restores an engine that answers queries
    bit-identically without re-preprocessing.  The payload is wrapped in the
    :data:`STORE_FORMAT` checksum envelope so :func:`load_engine` can detect
    corruption.

    With ``journaled=True`` the file instead records the engine's *base*
    snapshot (its payload from before the first ``apply_delta``) plus the
    serialised journal of every delta applied since
    (:data:`ENGINE_JOURNAL_FORMAT`).  Loading replays the journal through
    ``apply_delta``, reproducing the live engine bit-identically.  Engines
    that cannot journal soundly — sampled engines persist only the sample,
    which delta indices do not refer to — raise
    :class:`~repro.exceptions.ConfigurationError` once deltas exist.
    """
    if not journaled:
        Path(path).write_text(
            json.dumps(_wrap_payload(engine.to_payload())), encoding="utf-8"
        )
        return
    journal = engine.journal
    if not journal:
        base = engine.to_payload()
    else:
        base = engine.base_payload
        if base is None:
            raise ConfigurationError(
                f"engine {engine.name!r} holds {len(journal)} "
                "journaled delta(s) but no base snapshot; journaled persistence "
                "needs a full-dataset, persistable engine (sampled engines "
                "persist snapshot-only — save with journaled=False)"
            )
    payload = {
        "format": ENGINE_JOURNAL_FORMAT,
        "base": base,
        "deltas": [delta.to_dict() for delta in journal],
    }
    Path(path).write_text(json.dumps(_wrap_payload(payload)), encoding="utf-8")


def load_engine(path: str | Path, oracle: FairnessOracle):
    """Read an engine file, dispatching on the engine name stored inside it.

    The fairness oracle is supplied by the caller (oracles are arbitrary code
    and are never serialised).  Raises :class:`ConfigurationError` when the
    file holds a bare index (see :func:`load_index`) or is not a serialised
    engine at all, and a typed :class:`~repro.exceptions.IndexIntegrityError`
    when the file's checksum envelope fails verification (see
    :func:`load_index`).
    """
    # Imported lazily: repro.core.engine imports this module's serialisers
    # inside its persistence hooks, so a module-level import would be cyclic.
    from repro.core.engine import ENGINE_FORMAT, engine_from_payload
    from repro.core.maintenance import DatasetDelta

    payload = _read_document(path)
    if isinstance(payload, dict) and payload.get("format") == INDEX_FORMAT:
        raise ConfigurationError(
            f"{path} holds a bare index (format {INDEX_FORMAT!r}); use load_index() "
            "for index files, or re-save through FairRankingDesigner.save()"
        )
    if isinstance(payload, dict) and payload.get("format") == ENGINE_JOURNAL_FORMAT:
        try:
            engine = engine_from_payload(payload["base"], oracle)
            for delta_payload in payload.get("deltas", ()):
                engine.apply_delta(DatasetDelta.from_dict(delta_payload))
            return engine
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigurationError(
                f"{path} holds a journaled engine whose payload is malformed: {exc}"
            ) from exc
    if not isinstance(payload, dict) or payload.get("format") != ENGINE_FORMAT:
        raise ConfigurationError(
            f"{path} is not a serialised engine (expected format {ENGINE_FORMAT!r})"
        )
    try:
        return engine_from_payload(payload, oracle)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
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
