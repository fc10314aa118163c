"""Structured tracing spans on an injectable monotonic clock.

A :class:`Span` is one timed, named unit of work with key/value attributes
and a parent link; a :class:`TraceRecorder` collects spans into a bounded
in-memory buffer and exports them as JSONL (format ``repro.obs.trace/v1``,
one header line followed by one span per line, keys sorted — so two
identical runs on the same injected clock export byte-identical bytes).

Spans open one way: ``recorder.span(name, **attributes)``, a context
manager yielding a mutable handle (``handle.set(key, value)`` attaches
attributes computed inside the body).  A span opened inside another becomes
its child via ``parent_id``.  On close the handle's ``duration`` is set from
the recorded span's two clock reads, even when a full buffer drops the span.

The *stage seam* (:func:`stage_span` + :func:`activated`) lets preprocessing
hot paths (``data/dominance.py``, ``geometry/dual.py``, ``core/two_dim.py``,
``core/approx.py``) emit per-chunk spans without importing or owning a
recorder: :class:`repro.obs.instrument.InstrumentedEngine` activates its
recorder around the inner ``preprocess`` call, and ``stage_span`` is a
near-zero-cost no-op whenever no recorder is active — uninstrumented runs
pay one global read per stage.

Clock discipline: this module never touches ``time.*`` (the ``obs-clock``
contract rule); the default clock is :data:`repro.clock.monotonic_clock` and
any ``() -> float`` callable — e.g. :class:`repro.clock.FakeClock` — can be
injected for deterministic tests.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.clock import Clock, monotonic_clock
from repro.exceptions import ConfigurationError

__all__ = [
    "TRACE_FORMAT",
    "Span",
    "TraceRecorder",
    "activated",
    "active_recorder",
    "parse_trace_jsonl",
    "reset_stage_recorder",
    "stage_span",
]

#: Format tag stamped on the header line of every trace export.
TRACE_FORMAT = "repro.obs.trace/v1"


@dataclass(frozen=True)
class Span:
    """One completed, immutable span.

    ``attributes`` is stored as a key-sorted tuple of ``(key, value)`` pairs
    so equal spans hash equal and exports are deterministic.
    """

    span_id: int
    parent_id: int | None
    name: str
    start: float
    duration: float
    attributes: tuple[tuple[str, Any], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict, one trace-export line per span."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }


class _OpenSpan:
    """Mutable handle yielded while a span is open; ``duration`` is set when it closes."""

    __slots__ = ("name", "attributes", "duration")

    def __init__(self, name: str, attributes: dict[str, Any]) -> None:
        self.name = name
        self.attributes = attributes
        self.duration: float | None = None

    def set(self, key: str, value: Any) -> None:
        """Attach an attribute computed inside the span body."""
        self.attributes[str(key)] = value


class TraceRecorder:
    """Bounded in-memory span collector.

    Completed spans are kept in completion order up to ``max_spans``; spans
    finishing after the buffer is full are counted in :attr:`n_dropped`
    instead of silently vanishing (span ids keep advancing, so parent links
    of surviving spans stay valid).
    """

    def __init__(self, clock: Clock | None = None, max_spans: int = 10_000) -> None:
        if max_spans < 1:
            raise ConfigurationError(f"max_spans must be >= 1, got {max_spans}")
        self._clock: Clock = clock if clock is not None else monotonic_clock
        self.max_spans = int(max_spans)
        self._spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 1
        self.n_dropped = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[_OpenSpan]:
        """Record a span around the ``with`` body; yields a mutable handle."""
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        handle = _OpenSpan(str(name), dict(attributes))
        start = self._clock()
        try:
            yield handle
        finally:
            handle.duration = duration = self._clock() - start
            self._stack.pop()
            if len(self._spans) >= self.max_spans:
                self.n_dropped += 1
            else:
                self._spans.append(
                    Span(
                        span_id=span_id,
                        parent_id=parent_id,
                        name=handle.name,
                        start=start,
                        duration=duration,
                        attributes=tuple(sorted(handle.attributes.items())),
                    )
                )

    # ------------------------------------------------------------------ #
    # inspection and export
    # ------------------------------------------------------------------ #
    @property
    def spans(self) -> tuple[Span, ...]:
        """Completed spans in completion order."""
        return tuple(self._spans)

    def span_names(self) -> tuple[str, ...]:
        """Names of completed spans, in completion order."""
        return tuple(span.name for span in self._spans)

    def clear(self) -> None:
        """Drop all completed spans and restart ids (open spans survive).

        Ids restart at 1, or just after the innermost open span's id while
        spans are open, so ids stay unique and parent links stay valid.
        """
        self._spans.clear()
        self.n_dropped = 0
        self._next_id = self._stack[-1] + 1 if self._stack else 1

    def export_jsonl(self) -> str:
        """Serialize as JSONL: one header line, then one line per span."""
        header = {
            "format": TRACE_FORMAT,
            "n_spans": len(self._spans),
            "n_dropped": self.n_dropped,
        }
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(json.dumps(span.to_dict(), sort_keys=True) for span in self._spans)
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> Path:
        """Write :meth:`export_jsonl` to ``path`` and return it."""
        path = Path(path)
        path.write_text(self.export_jsonl(), encoding="utf-8")
        return path


def parse_trace_jsonl(text: str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Parse a trace export back into ``(header, span_dicts)``.

    Raises :class:`~repro.exceptions.ConfigurationError` on an empty
    document or a header that does not carry :data:`TRACE_FORMAT`.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigurationError("empty trace document (expected JSONL with a header line)")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise ConfigurationError(
            f"not a {TRACE_FORMAT} trace export: header {lines[0]!r:.120}"
        )
    return header, [json.loads(line) for line in lines[1:]]


# ---------------------------------------------------------------------- #
# the stage seam: ambient recorder for preprocessing hot paths
# ---------------------------------------------------------------------- #
_ACTIVE: TraceRecorder | None = None


def active_recorder() -> TraceRecorder | None:
    """The recorder stage spans currently flow to, or ``None``."""
    return _ACTIVE


@contextmanager
def activated(recorder: TraceRecorder) -> Iterator[TraceRecorder]:
    """Make ``recorder`` the ambient :func:`stage_span` target for the body.

    Nesting restores the previous recorder on exit, so instrumented engines
    can wrap one another without stealing each other's stage spans.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous


def reset_stage_recorder() -> None:
    """Detach the ambient recorder so :func:`stage_span` becomes a no-op.

    Worker processes forked while a recorder was :func:`activated` in the
    parent inherit the parent's ``_ACTIVE`` global; recording into that
    inherited copy would silently diverge from the parent's trace (and the
    recorder's injected clock may not even be picklable).  The pool and
    sharded-preprocessing initializers (:mod:`repro.parallel`) call this
    first thing in every child so stage spans degrade to no-ops there —
    parent-side spans are unaffected.
    """
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def stage_span(name: str, **attributes: Any) -> Iterator[_OpenSpan | None]:
    """Span against the ambient recorder; no-op (yields ``None``) when inactive."""
    recorder = _ACTIVE
    if recorder is None:
        yield None
        return
    with recorder.span(name, **attributes) as handle:
        yield handle
