"""Resilient serving layer: the fallback chain and seeded fault injection.

A serving layer answering interactive queries cannot let one failing
pipeline take down a whole batch, so this package adds graceful degradation
at the engine seam without touching the pipelines' numerics:

* :mod:`repro.resilience.fallback` — :class:`FallbackEngine`, a registered
  query engine running an ordered tier chain with per-query fault isolation;
* :mod:`repro.resilience.chaos` — seeded, deterministic fault injection
  powering the ``chaos``-marked test suite.

See ``docs/robustness.md`` for the failure model and guarantees.
"""

from repro.resilience.chaos import ChaosEngine, ChaosOracle, InjectedFault
from repro.resilience.fallback import (
    BatchReport,
    FallbackConfig,
    FallbackEngine,
    FallbackTelemetry,
    QueryFailure,
    QueryRecord,
    TierError,
)

__all__ = [
    "FallbackConfig",
    "FallbackEngine",
    "FallbackTelemetry",
    "TierError",
    "QueryRecord",
    "QueryFailure",
    "BatchReport",
    "ChaosOracle",
    "ChaosEngine",
    "InjectedFault",
]
