"""Replayable workload recording: capture the live query stream, play it back.

:class:`WorkloadRecorder` captures every served query — weights (and the
angles of every answered one), the answering engine, a latency bucket, and
the oracle-call cost — into a JSONL log (format ``repro.obs.workload/v1``:
one header line, one record per line, keys sorted).  This is the substrate
the ROADMAP's workload-aware autotuning item needs: record suggested-weight
traffic, then :meth:`replay` it through alternative engine configurations.

Recording is O(1) per batch on the serving path: ``record_batch`` stores one
``(weights matrix copy, results, metadata)`` tuple and per-query records are
materialized lazily at :meth:`records`/:meth:`save` time, so the hot
``suggest_many`` loop never builds dicts.  JSON floats round-trip exactly in
Python (shortest-repr), so a log written by one process replays to
**bit-identical** answers in another given the same dataset, oracle and
config — :meth:`replay` checks exactly that and reports mismatches.

Context (:meth:`set_context` — e.g. the :class:`~repro.core.session.DesignSession`
step and note) is attached copy-on-write: each batch keeps a reference to
the context dict current at record time, and updates replace the dict rather
than mutating it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.geometry.angles import to_angles
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, bucket_label

__all__ = ["WORKLOAD_FORMAT", "ReplayReport", "WorkloadRecorder"]

#: Format tag on the header line of every workload log.
WORKLOAD_FORMAT = "repro.obs.workload/v1"


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying a recorded workload through an engine."""

    n_queries: int
    n_skipped: int
    n_mismatched: int
    mismatched_indices: tuple[int, ...] = ()

    @property
    def bit_identical(self) -> bool:
        """True when every replayed answer matched the recording exactly."""
        return self.n_mismatched == 0


class _Batch:
    """One recorded ``suggest``/``suggest_many`` call, stored without copies
    beyond the defensive weights-matrix copy."""

    __slots__ = ("matrix", "results", "engine", "elapsed", "oracle_calls", "context")

    def __init__(
        self,
        matrix: np.ndarray,
        results: list[Any],
        engine: str,
        elapsed: float,
        oracle_calls: int,
        context: dict[str, Any],
    ) -> None:
        self.matrix = matrix
        self.results = results
        self.engine = engine
        self.elapsed = elapsed
        self.oracle_calls = oracle_calls
        self.context = context


class WorkloadRecorder:
    """Captures served queries; see the module docstring for the format."""

    def __init__(self) -> None:
        self._batches: list[_Batch] = []
        self._context: dict[str, Any] = {}
        self._loaded: list[dict[str, Any]] | None = None

    # ------------------------------------------------------------------ #
    # recording (hot path: O(1) per batch)
    # ------------------------------------------------------------------ #
    def set_context(self, **values: Any) -> None:
        """Attach key/values to every batch recorded from now on."""
        self._context = {**self._context, **values}

    def clear_context(self) -> None:
        self._context = {}

    def record_batch(
        self,
        weights_matrix: np.ndarray,
        results: Sequence[Any],
        *,
        engine: str,
        elapsed: float,
        oracle_calls: int,
    ) -> None:
        """Record one served batch (also used for single queries, q=1)."""
        matrix = np.array(weights_matrix, dtype=float, copy=True, ndmin=2)
        results = list(results)
        if matrix.shape[0] != len(results):
            raise ConfigurationError(
                f"recorded batch has {matrix.shape[0]} queries but {len(results)} results"
            )
        self._batches.append(
            _Batch(
                matrix=matrix,
                results=results,
                engine=str(engine),
                elapsed=float(elapsed),
                oracle_calls=int(oracle_calls),
                context=self._context,
            )
        )

    @property
    def n_queries(self) -> int:
        if self._loaded is not None:
            return len(self._loaded)
        return sum(len(batch.results) for batch in self._batches)

    # ------------------------------------------------------------------ #
    # materialization, save / load
    # ------------------------------------------------------------------ #
    def records(self) -> list[dict[str, Any]]:
        """Per-query records (materialized lazily, or as loaded from disk)."""
        if self._loaded is not None:
            return list(self._loaded)
        records: list[dict[str, Any]] = []
        for batch in self._batches:
            size = len(batch.results)
            per_query = batch.elapsed / size if size else 0.0
            bucket = bucket_label(per_query, DEFAULT_LATENCY_BUCKETS)
            for position, result in enumerate(batch.results):
                weights = [float(value) for value in batch.matrix[position]]
                record: dict[str, Any] = {
                    "index": len(records),
                    "weights": weights,
                    "engine": batch.engine,
                    "latency_bucket": bucket,
                    "batch_size": size,
                    "batch_elapsed": batch.elapsed,
                    "batch_oracle_calls": batch.oracle_calls,
                    "context": dict(batch.context),
                }
                if hasattr(result, "satisfactory"):
                    # A failed row may be no valid weight vector (all zero,
                    # negative, non-finite), so only answered rows get angles.
                    record["angles"] = [
                        float(value) for value in to_angles(np.asarray(weights))
                    ]
                    record["satisfactory"] = bool(result.satisfactory)
                    record["suggested_weights"] = [
                        float(value) for value in result.function.weights
                    ]
                    record["angular_distance"] = float(result.angular_distance)
                else:
                    record["failed"] = True
                records.append(record)
        return records

    def save(self, path: str | Path) -> Path:
        """Write the log as JSONL (header line + one record per line)."""
        records = self.records()
        header = {"format": WORKLOAD_FORMAT, "n_queries": len(records)}
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(json.dumps(record, sort_keys=True) for record in records)
        path = Path(path)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "WorkloadRecorder":
        """Read a log written by :meth:`save`; the result replays but does
        not record."""
        lines = [
            line for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        if not lines:
            raise ConfigurationError(f"empty workload log: {path}")
        header = json.loads(lines[0])
        if not isinstance(header, dict) or header.get("format") != WORKLOAD_FORMAT:
            raise ConfigurationError(
                f"not a {WORKLOAD_FORMAT} workload log: {path} (header {lines[0]!r:.120})"
            )
        recorder = cls()
        recorder._loaded = [json.loads(line) for line in lines[1:]]
        if len(recorder._loaded) != int(header.get("n_queries", -1)):
            raise ConfigurationError(
                f"workload log {path} is truncated: header promises "
                f"{header.get('n_queries')} records, found {len(recorder._loaded)}"
            )
        return recorder

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def replay(self, engine: Any) -> ReplayReport:
        """Re-serve every recorded query through ``engine.suggest_many``.

        Failed records (queries that came back as a pool's
        :class:`~repro.parallel.pool.QueryFailure` at record time) are
        skipped.  A replayed answer *matches* when ``satisfactory``, the
        suggested weights and the angular distance are all exactly equal to
        the recording — bit-identical, not approximately equal.
        """
        records = [record for record in self.records() if not record.get("failed")]
        if not records:
            return ReplayReport(n_queries=0, n_skipped=self.n_queries, n_mismatched=0)
        matrix = np.asarray([record["weights"] for record in records], dtype=float)
        results = engine.suggest_many(matrix)
        mismatched: list[int] = []
        for record, result in zip(records, results):
            matches = (
                hasattr(result, "satisfactory")
                and bool(result.satisfactory) == record["satisfactory"]
                and [float(v) for v in result.function.weights] == record["suggested_weights"]
                and float(result.angular_distance) == record["angular_distance"]
            )
            if not matches:
                mismatched.append(record["index"])
        return ReplayReport(
            n_queries=len(records),
            n_skipped=self.n_queries - len(records),
            n_mismatched=len(mismatched),
            mismatched_indices=tuple(mismatched),
        )
