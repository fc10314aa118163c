"""Deterministic fault injection for the chaos test suite.

Resilience claims are worthless untested, and testing them against real
flakiness is itself flaky.  :class:`ChaosOracle` and :class:`ChaosEngine`
inject failures and wrong verdicts at configurable rates, **keyed by a
seeded hash of the call's payload** (the ordering for oracles, the weight
vector for engines) rather than by a call counter.  That choice makes
injection

* *deterministic* — the same seed and payload always produce the same fault,
  independent of ``PYTHONHASHSEED``;
* *path-independent* — a query that faults inside a ``suggest_many`` batch
  faults identically when the pool answers it query by query, so a
  "poisoned" query stays poisoned and the per-query isolation invariants of
  :class:`~repro.parallel.pool.PoolEngine` can be asserted exactly.

Injected failures raise :class:`InjectedFault`, an
:class:`~repro.exceptions.OracleError` subclass.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.engine import EngineWrapper
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError, OracleError
from repro.fairness.oracle import FairnessOracle

__all__ = ["InjectedFault", "ChaosOracle", "ChaosEngine"]


class InjectedFault(OracleError):
    """The failure raised by chaos wrappers."""


def _roll(seed: int, salt: bytes, payload: bytes) -> float:
    """Deterministic uniform draw in [0, 1) keyed by (seed, salt, payload)."""
    digest = hashlib.blake2b(
        salt + seed.to_bytes(8, "little", signed=True) + payload, digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2**64


def _check_rate(name: str, rate: float) -> float:
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {rate!r}")
    return float(rate)


class ChaosOracle(FairnessOracle):
    """A fairness oracle that misbehaves on purpose, deterministically.

    Parameters
    ----------
    inner:
        The well-behaved oracle being sabotaged.
    failure_rate:
        Probability (per distinct ordering) of raising :class:`InjectedFault`
        instead of answering.
    wrong_verdict_rate:
        Probability (per distinct ordering, drawn independently of failures)
        of flipping the inner verdict.
    seed:
        Seed of every injection draw.
    enabled:
        When False the wrapper forwards transparently — flip it on *after*
        preprocessing to model an oracle that degrades once serving starts.
    """

    def __init__(
        self,
        inner: FairnessOracle,
        *,
        failure_rate: float = 0.0,
        wrong_verdict_rate: float = 0.0,
        seed: int = 0,
        enabled: bool = True,
    ) -> None:
        if not isinstance(inner, FairnessOracle):
            raise OracleError("ChaosOracle wraps a FairnessOracle")
        self.inner = inner
        self.failure_rate = _check_rate("failure_rate", failure_rate)
        self.wrong_verdict_rate = _check_rate("wrong_verdict_rate", wrong_verdict_rate)
        self.seed = int(seed)
        self.enabled = enabled
        self.injected_failures = 0
        self.injected_flips = 0
        self.forwarded_calls = 0

    def would_fail(self, ordering: np.ndarray) -> bool:
        """True if a call with this ordering is injected to fail (seed-determined)."""
        payload = np.ascontiguousarray(ordering, dtype=np.int64).tobytes()
        return _roll(self.seed, b"oracle-fail", payload) < self.failure_rate

    def is_satisfactory(self, ordering: np.ndarray, dataset: Dataset) -> bool:
        if not self.enabled:
            self.forwarded_calls += 1
            return self.inner.is_satisfactory(ordering, dataset)
        payload = np.ascontiguousarray(ordering, dtype=np.int64).tobytes()
        if _roll(self.seed, b"oracle-fail", payload) < self.failure_rate:
            self.injected_failures += 1
            raise InjectedFault("chaos: injected oracle failure")
        verdict = self.inner.is_satisfactory(ordering, dataset)
        if _roll(self.seed, b"oracle-flip", payload) < self.wrong_verdict_rate:
            self.injected_flips += 1
            return not verdict
        self.forwarded_calls += 1
        return bool(verdict)

    def describe(self) -> str:
        return (
            f"chaos({self.inner.describe()}, fail={self.failure_rate:g}, "
            f"flip={self.wrong_verdict_rate:g})"
        )


class ChaosEngine(EngineWrapper):
    """A query-engine wrapper that injects per-query faults.

    Forwards the whole :class:`~repro.core.engine.QueryEngine` seam to
    ``inner`` — so a chaos engine follows ``apply_delta`` like any other —
    and presents the inner engine's name, oracle, config, capabilities and
    payload as its own.  Faults are keyed by each query's
    weight vector, so a poisoned query fails the same way in the batch path
    and in the per-query path (see module docstring).
    ``suggest_many`` raises on the *first* poisoned query in the batch —
    exactly how one bad query used to take down a whole unprotected batch —
    which is the failure mode the pool's per-query isolation is tested
    against.
    """

    def __init__(
        self,
        inner,
        *,
        failure_rate: float = 0.0,
        seed: int = 0,
        enabled: bool = True,
    ) -> None:
        self.inner = inner
        self.failure_rate = _check_rate("failure_rate", failure_rate)
        self.seed = int(seed)
        self.enabled = enabled
        self.injected_failures = 0

    # -- the inner engine's identity ------------------------------------ #
    @property
    def name(self) -> str:
        return getattr(self.inner, "name", type(self.inner).__name__)

    @property
    def oracle(self):
        return self.inner.oracle

    @property
    def config(self):
        return self.inner.config

    def capabilities(self):
        return self.inner.capabilities()

    def to_payload(self) -> dict:
        return self.inner.to_payload()

    # -- fault injection ------------------------------------------------- #
    def _weights_payload(self, weights) -> bytes:
        return np.ascontiguousarray(weights, dtype=float).tobytes()

    def would_fail(self, weights) -> bool:
        """True if a query with these weights is injected to fail."""
        return (
            _roll(self.seed, b"engine-fail", self._weights_payload(weights))
            < self.failure_rate
        )

    def _maybe_fault(self, weights) -> None:
        if self.would_fail(weights):
            self.injected_failures += 1
            raise InjectedFault("chaos: injected engine failure")

    def suggest(self, function):
        if self.enabled:
            self._maybe_fault(function.weights)
        return self.inner.suggest(function)

    def suggest_many(self, weights_matrix):
        if self.enabled:
            matrix = np.asarray(weights_matrix, dtype=float)
            if matrix.ndim == 2:
                for row in matrix:
                    self._maybe_fault(row)
        return self.inner.suggest_many(weights_matrix)
