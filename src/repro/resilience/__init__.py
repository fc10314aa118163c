"""Seeded, deterministic fault injection: the test doubles of per-query isolation.

:mod:`repro.resilience.chaos` provides :class:`ChaosOracle` and
:class:`ChaosEngine`, which fail or flip chosen calls keyed by a seeded hash
of each call's payload.  The ``chaos``-marked tests drive the pool's
per-query isolation (:mod:`repro.parallel.pool`) with them.  No production
module imports this package.

See ``docs/robustness.md`` for the failure model and guarantees.
"""

from repro.resilience.chaos import ChaosEngine, ChaosOracle, InjectedFault

__all__ = [
    "ChaosOracle",
    "ChaosEngine",
    "InjectedFault",
]
