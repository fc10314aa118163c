"""Unified observability: tracing spans, metrics, workload recording.

The package splits into a *light* half and a *heavy* half:

- :mod:`repro.obs.trace` and :mod:`repro.obs.metrics` are dependency-free
  (only ``repro.clock`` and ``repro.exceptions``) and are imported eagerly —
  preprocessing hot paths in lower layers import
  :func:`~repro.obs.trace.stage_span` from here without pulling in the
  engine stack.
- :mod:`repro.obs.instrument` (the ``"instrumented"`` engine) and
  :mod:`repro.obs.workload` import the engine seam, so they are exposed
  **lazily** via module ``__getattr__`` (PEP 562).  Eager imports here would
  close an import cycle: ``core.engine`` → ``core.approx`` →
  ``geometry.dual`` → ``data.dominance`` → ``repro.obs`` (for the stage
  seam) → ``instrument`` → ``core.engine`` again, mid-definition.

Everything is deterministic by construction: no module under ``repro.obs``
may touch ``time.*`` (the ``obs-clock`` contract rule — clocks are injected,
:data:`repro.clock.monotonic_clock` by default), and all exports
(trace JSONL, ``repro.obs/v1`` metrics snapshots, workload logs) are
key-sorted so identical runs produce byte-identical bytes.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    METRICS_FORMAT,
    MetricsRegistry,
    bucket_label,
)
from repro.obs.trace import (
    TRACE_FORMAT,
    Span,
    TraceRecorder,
    activated,
    active_recorder,
    parse_trace_jsonl,
    stage_span,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "METRICS_FORMAT",
    "TRACE_FORMAT",
    "WORKLOAD_FORMAT",
    "InstrumentedConfig",
    "InstrumentedEngine",
    "InstrumentedOracle",
    "MetricsRegistry",
    "ReplayReport",
    "Span",
    "TraceRecorder",
    "WorkloadRecorder",
    "activated",
    "active_recorder",
    "bucket_label",
    "parse_trace_jsonl",
    "stage_span",
]

#: Heavy names resolved on first attribute access (PEP 562).
_LAZY = {
    "InstrumentedConfig": "repro.obs.instrument",
    "InstrumentedEngine": "repro.obs.instrument",
    "InstrumentedOracle": "repro.obs.instrument",
    "ReplayReport": "repro.obs.workload",
    "WorkloadRecorder": "repro.obs.workload",
    "WORKLOAD_FORMAT": "repro.obs.workload",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        # The one AttributeError the obs package raises: PEP 562 requires it
        # for unknown module attributes (typed-exceptions exempts it here).
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
