"""Interactive design sessions: the paper's human-in-the-loop tuning workflow.

The introduction of the paper stresses that designing a ranking scheme is an
*iterative* process: the expert proposes weights, inspects the outcome, and
adjusts — and the system's job is to keep every iteration interactive and to
steer the expert toward fair choices.  :class:`DesignSession` wraps a
preprocessed :class:`~repro.core.system.FairRankingDesigner` and records that
loop: every proposal, the system's verdict and suggestion, and which function
the user finally accepted.  Sessions can be summarised, rendered as a
transcript, and serialised for audit trails.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.maintenance import DatasetDelta, MaintenanceReport
from repro.core.result import SuggestionResult
from repro.core.system import FairRankingDesigner
from repro.exceptions import ConfigurationError
from repro.ranking.scoring import LinearScoringFunction

__all__ = ["ProposalRecord", "SessionSummary", "DesignSession"]


@dataclass(frozen=True)
class ProposalRecord:
    """One step of the design loop: a proposal and the system's answer.

    Attributes
    ----------
    step:
        1-based position of the proposal in the session.
    result:
        The :class:`~repro.core.result.SuggestionResult` returned by the
        designer for this proposal.
    note:
        Optional free-text note supplied by the user ("try favouring GPA").
    accepted:
        True if the user accepted this step's outcome as the final function.
    """

    step: int
    result: SuggestionResult
    note: str = ""
    accepted: bool = False

    @property
    def query(self) -> LinearScoringFunction:
        """The proposed function."""
        return self.result.query

    @property
    def suggestion(self) -> LinearScoringFunction:
        """The satisfactory function the system answered with."""
        return self.result.function

    def as_dict(self) -> dict:
        """JSON-compatible view of the record."""
        return {
            "step": self.step,
            "query_weights": list(self.result.query.weights),
            "satisfactory": self.result.satisfactory,
            "suggested_weights": list(self.result.function.weights),
            "angular_distance": self.result.angular_distance,
            "note": self.note,
            "accepted": self.accepted,
        }


@dataclass(frozen=True)
class SessionSummary:
    """Aggregate statistics of a design session.

    Attributes
    ----------
    n_proposals:
        Number of weight vectors the user proposed.
    n_already_satisfactory:
        How many of them were fair as proposed.
    mean_repair_distance, max_repair_distance:
        Mean / maximum angular distance of the suggestions issued for the
        unfair proposals (0 when every proposal was fair).
    accepted_step:
        The 1-based step whose outcome the user accepted, or ``None``.
    """

    n_proposals: int
    n_already_satisfactory: int
    mean_repair_distance: float
    max_repair_distance: float
    accepted_step: int | None


class DesignSession:
    """Record of one expert's interactive weight-tuning session.

    Parameters
    ----------
    designer:
        A :class:`~repro.core.system.FairRankingDesigner`.  If it has not been
        preprocessed yet, the session preprocesses it on construction so the
        first proposal is already answered from the index.

    Examples
    --------
    >>> from repro.data import make_compas_like
    >>> from repro.fairness import ProportionalOracle
    >>> from repro import ApproxConfig, FairRankingDesigner
    >>> dataset = make_compas_like(n=150, seed=3).project(
    ...     ["c_days_from_compas", "juv_other_count", "start"])
    >>> oracle = ProportionalOracle.at_most_share_plus_slack(
    ...     dataset, "race", "African-American", k=0.3, slack=0.10)
    >>> session = DesignSession(FairRankingDesigner(
    ...     dataset, oracle, ApproxConfig(n_cells=64, max_hyperplanes=24)))
    >>> record = session.propose([0.4, 0.3, 0.3], note="first guess")
    >>> session.accept().accepted
    True
    >>> session.summary().n_proposals
    1
    """

    def __init__(self, designer: FairRankingDesigner) -> None:
        if not isinstance(designer, FairRankingDesigner):
            raise ConfigurationError("DesignSession wraps a FairRankingDesigner")
        if not designer.is_preprocessed:
            designer.preprocess()
        self.designer = designer
        self._records: list[ProposalRecord] = []
        self._maintenance: list[dict] = []

    # ------------------------------------------------------------------ #
    # the design loop
    # ------------------------------------------------------------------ #
    def propose(
        self, weights: Sequence[float] | LinearScoringFunction, note: str = ""
    ) -> ProposalRecord:
        """Submit a weight proposal and record the system's answer."""
        self._stamp_workload_context(note)
        result = self.designer.suggest(weights)
        record = ProposalRecord(step=len(self._records) + 1, result=result, note=note)
        self._records.append(record)
        return record

    def _stamp_workload_context(self, note: str) -> None:
        """Attach the session step/note to workload-recording engines.

        When the designer serves through the ``"instrumented"`` engine with
        ``record_workload=True``, every recorded query carries the design
        step that issued it, so a replayed log can be cut per step.
        """
        workload = getattr(getattr(self.designer, "engine", None), "workload", None)
        if workload is not None:
            workload.set_context(step=len(self._records) + 1, note=note)

    def propose_many(self, weights_matrix, note: str = "") -> list[ProposalRecord]:
        """Submit a batch of proposals (one row per weight vector) in one step.

        The batch is answered through the designer's
        :meth:`~repro.core.system.FairRankingDesigner.suggest_many` — the
        engines' batched path — and each answer is recorded as its own
        sequentially numbered proposal, exactly as if :meth:`propose` had been
        called per row.
        """
        self._stamp_workload_context(note)
        results = self.designer.suggest_many(weights_matrix)
        records = []
        for result in results:
            record = ProposalRecord(step=len(self._records) + 1, result=result, note=note)
            self._records.append(record)
            records.append(record)
        return records

    def accept(self, step: int | None = None) -> ProposalRecord:
        """Mark a step's outcome as the accepted final function.

        Parameters
        ----------
        step:
            1-based step to accept; defaults to the most recent proposal.
            Accepting a step clears any earlier acceptance (a session has at
            most one accepted function).
        """
        if not self._records:
            raise ConfigurationError("nothing to accept: no proposals were made")
        if step is None:
            step = len(self._records)
        if not 1 <= step <= len(self._records):
            raise ConfigurationError(f"step {step} out of range 1..{len(self._records)}")
        self._records = [
            ProposalRecord(
                step=record.step,
                result=record.result,
                note=record.note,
                accepted=(record.step == step),
            )
            for record in self._records
        ]
        return self._records[step - 1]

    # ------------------------------------------------------------------ #
    # dataset maintenance (the dynamic-data loop)
    # ------------------------------------------------------------------ #
    def insert(self, rows, types=None, note: str = "") -> MaintenanceReport:
        """Append items to the live dataset mid-session.

        ``rows`` is a sequence of scoring rows; ``types`` maps each type
        attribute to one categorical value per inserted row (required when
        the dataset carries type attributes — fairness oracles consult them).
        The index is maintained through the engine seam and later proposals
        are answered against the mutated data.
        """
        return self.apply_delta(
            DatasetDelta(
                inserts=tuple(tuple(float(v) for v in row) for row in rows),
                insert_types={} if types is None else types,
            ),
            note=note,
        )

    def update(self, index: int, row, note: str = "") -> MaintenanceReport:
        """Replace the scoring row of one existing item."""
        return self.apply_delta(
            DatasetDelta(updates=((int(index), tuple(float(v) for v in row)),)),
            note=note,
        )

    def delete(self, indices, note: str = "") -> MaintenanceReport:
        """Remove items by their current dataset indices."""
        return self.apply_delta(
            DatasetDelta(deletes=tuple(int(i) for i in indices)), note=note
        )

    def apply_delta(self, delta: DatasetDelta, note: str = "") -> MaintenanceReport:
        """Apply an arbitrary :class:`~repro.core.maintenance.DatasetDelta`.

        The maintenance event is recorded in the session's audit trail
        (:attr:`maintenance_history`, serialised by :meth:`to_dict`) with the
        proposal step it happened after, so a transcript shows which answers
        were served pre- and post-mutation.
        """
        report = self.designer.apply_delta(delta)
        self._maintenance.append(
            {
                "after_step": len(self._records),
                "note": note,
                "delta": delta.to_dict(),
                "report": report.as_dict(),
            }
        )
        return report

    @property
    def maintenance_history(self) -> list[dict]:
        """All recorded maintenance events, in order."""
        return [dict(event) for event in self._maintenance]

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def history(self) -> list[ProposalRecord]:
        """All proposals in order."""
        return list(self._records)

    @property
    def n_proposals(self) -> int:
        """Number of proposals made so far."""
        return len(self._records)

    @property
    def accepted_record(self) -> ProposalRecord | None:
        """The accepted step, or ``None`` if nothing was accepted yet."""
        for record in self._records:
            if record.accepted:
                return record
        return None

    @property
    def accepted_function(self) -> LinearScoringFunction | None:
        """The accepted scoring function (the suggestion of the accepted step)."""
        record = self.accepted_record
        return record.suggestion if record is not None else None

    def summary(self) -> SessionSummary:
        """Aggregate statistics of the session so far."""
        repairs = [
            record.result.angular_distance
            for record in self._records
            if not record.result.satisfactory
        ]
        accepted = self.accepted_record
        return SessionSummary(
            n_proposals=len(self._records),
            n_already_satisfactory=sum(
                1 for record in self._records if record.result.satisfactory
            ),
            mean_repair_distance=float(np.mean(repairs)) if repairs else 0.0,
            max_repair_distance=float(np.max(repairs)) if repairs else 0.0,
            accepted_step=accepted.step if accepted is not None else None,
        )

    # ------------------------------------------------------------------ #
    # rendering and persistence
    # ------------------------------------------------------------------ #
    def format_transcript(self) -> str:
        """Render the session as a plain-text transcript."""
        if not self._records:
            return "(empty design session)"
        lines = []
        for record in self._records:
            weights = ", ".join(f"{value:.3f}" for value in record.query.weights)
            lines.append(f"step {record.step}: propose [{weights}]"
                         + (f"  — {record.note}" if record.note else ""))
            if record.result.satisfactory:
                lines.append("        already satisfies the fairness constraint")
            else:
                suggested = ", ".join(f"{value:.3f}" for value in record.suggestion.weights)
                lines.append(
                    f"        violates the constraint; closest fair weights [{suggested}] "
                    f"(distance {record.result.angular_distance:.4f} rad)"
                )
            if record.accepted:
                lines.append("        ACCEPTED")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-compatible view of the whole session."""
        summary = self.summary()
        return {
            "oracle": self.designer.oracle.describe(),
            # "mode" is the engine's registry name; kept under its historical
            # key so pre-engine session consumers keep working.
            "mode": self.designer.mode,
            "config": asdict(self.designer.config),
            "records": [record.as_dict() for record in self._records],
            "maintenance": self.maintenance_history,
            "summary": {
                "n_proposals": summary.n_proposals,
                "n_already_satisfactory": summary.n_already_satisfactory,
                "mean_repair_distance": summary.mean_repair_distance,
                "max_repair_distance": summary.max_repair_distance,
                "accepted_step": summary.accepted_step,
            },
        }

    def save(self, path: str | Path) -> None:
        """Write the session transcript to a JSON file (an audit trail)."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2), encoding="utf-8")
