"""Fault-tolerant oracle wrapper: deadlines, bounded retry, circuit breaking.

The serving stack calls the fairness oracle on every online query (line 1 of
``MDONLINE`` re-checks the query itself), so one flaky oracle call used to
kill an entire ``suggest_many`` batch.  :class:`ResilientOracle` wraps any
:class:`~repro.fairness.oracle.FairnessOracle` with the protections an
external dependency needs:

* a **deadline** per call — calls whose measured duration exceeds it count as
  :class:`~repro.exceptions.OracleTimeoutError` failures (the check is
  post-hoc: a call that hangs forever cannot be preempted from pure Python,
  but a slow oracle is detected, fails the attempt, and feeds the breaker);
* **bounded retry** with deterministic exponential backoff + jitter, driven
  by a :class:`~repro.resilience.policy.RetryPolicy`;
* **transient-vs-permanent classification** over the
  :class:`~repro.exceptions.OracleError` hierarchy (see
  :func:`~repro.resilience.policy.is_transient_failure`); permanent failures
  surface immediately instead of burning the retry budget;
* a **circuit breaker** that opens after N consecutive failures and raises a
  typed :class:`~repro.exceptions.OracleUnavailableError` instead of hanging
  the batch on a dependency that is known to be down.

The wrapper forwards the batched protocol
(:mod:`repro.fairness.batched`) when the inner oracle supports it, so the
vectorised ``suggest_many`` serving paths keep their one-matmul pre-check.
On the happy path it adds one circuit check and a few counter increments per
call; the clock is not even read unless a deadline is armed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.clock import monotonic_clock
from repro.data.dataset import Dataset
from repro.exceptions import OracleError, OracleTimeoutError, OracleUnavailableError
from repro.fairness.batched import as_batched, evaluate_many, ordering_matrix
from repro.fairness.oracle import FairnessOracle
from repro.resilience.policy import CircuitBreaker, RetryPolicy, is_transient_failure

__all__ = ["OracleCallStats", "ResilientOracle"]


@dataclass
class OracleCallStats:
    """Mutable counters a :class:`ResilientOracle` keeps about its traffic.

    Attributes
    ----------
    calls:
        Attempted inner-oracle calls (each retry counts).
    successes:
        Calls that returned a verdict within the deadline.
    retries:
        Attempts beyond the first for some logical evaluation.
    transient_failures, permanent_failures, timeouts:
        Failure counts by classification (timeouts also count as transient).
    rejected_open:
        Evaluations rejected without calling the oracle because the circuit
        was open.
    exhausted:
        Evaluations that failed after the full retry budget.
    """

    calls: int = 0
    successes: int = 0
    retries: int = 0
    transient_failures: int = 0
    permanent_failures: int = 0
    timeouts: int = 0
    rejected_open: int = 0
    exhausted: int = 0

    def as_dict(self) -> dict:
        """JSON-compatible snapshot (for monitoring dashboards)."""
        return {
            "calls": self.calls,
            "successes": self.successes,
            "retries": self.retries,
            "transient_failures": self.transient_failures,
            "permanent_failures": self.permanent_failures,
            "timeouts": self.timeouts,
            "rejected_open": self.rejected_open,
            "exhausted": self.exhausted,
        }


class ResilientOracle(FairnessOracle):
    """Wrap a fairness oracle with deadline, retry and circuit-breaker guards.

    Parameters
    ----------
    inner:
        The oracle to protect.  Composes with the library's other wrappers —
        a :class:`~repro.fairness.oracle.CountingOracle` can wrap a
        ``ResilientOracle`` (counting logical evaluations) or sit inside it
        (counting physical attempts).
    retry_policy:
        Backoff schedule; defaults to :class:`~repro.resilience.policy.RetryPolicy`
        (3 attempts, 50 ms base, deterministic jitter).
    circuit_breaker:
        Breaker instance; defaults to 5 consecutive failures / 30 s cooldown
        on the same injected clock.
    deadline:
        Per-call deadline in seconds (``None`` disables the check).
    classify:
        ``exception -> bool`` returning True for transient (retryable)
        failures; defaults to :func:`~repro.resilience.policy.is_transient_failure`.
    clock, sleep:
        Injectable time sources.  Pass a
        :class:`~repro.resilience.policy.FakeClock` and its ``advance`` bound
        method to test deadlines and cooldowns without real waiting.
    """

    def __init__(
        self,
        inner: FairnessOracle,
        *,
        retry_policy: RetryPolicy | None = None,
        circuit_breaker: CircuitBreaker | None = None,
        deadline: float | None = None,
        classify: Callable[[BaseException], bool] | None = None,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        if not isinstance(inner, FairnessOracle):
            raise OracleError("ResilientOracle wraps a FairnessOracle")
        self.inner = inner
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._clock = clock if clock is not None else monotonic_clock
        self.circuit_breaker = (
            circuit_breaker
            if circuit_breaker is not None
            else CircuitBreaker(clock=self._clock)
        )
        self.deadline = deadline
        self._classify = classify if classify is not None else is_transient_failure
        self._sleep = sleep if sleep is not None else time.sleep
        self.stats = OracleCallStats()

    # ------------------------------------------------------------------ #
    # the guarded call loop
    # ------------------------------------------------------------------ #
    def _guarded(self, call):
        """Run ``call`` under the circuit/deadline/retry discipline."""
        policy = self.retry_policy
        stats = self.stats
        breaker = self.circuit_breaker
        deadline = self.deadline
        last_error: BaseException | None = None
        for attempt in range(1, policy.max_attempts + 1):
            if not breaker.allow():
                stats.rejected_open += 1
                raise OracleUnavailableError(
                    f"oracle circuit is open after "
                    f"{breaker.consecutive_failures} consecutive "
                    f"failures; retry after the "
                    f"{breaker.recovery_time:g}s cooldown",
                    last_error=last_error,
                )
            if attempt > 1:
                stats.retries += 1
                self._sleep(policy.backoff(attempt - 1))
            stats.calls += 1
            # The clock is only read when a deadline is armed, keeping the
            # unguarded happy path down to the circuit check + counters.
            started = self._clock() if deadline is not None else 0.0
            try:
                value = call()
            except Exception as error:
                if not self._classify(error):
                    stats.permanent_failures += 1
                    breaker.record_failure()
                    raise
                stats.transient_failures += 1
                breaker.record_failure()
                last_error = error
                continue
            if deadline is not None:
                elapsed = self._clock() - started
                if elapsed > deadline:
                    timeout = OracleTimeoutError(
                        f"oracle call took {elapsed:.3f}s, exceeding the "
                        f"{deadline:g}s deadline"
                    )
                    stats.timeouts += 1
                    stats.transient_failures += 1
                    breaker.record_failure()
                    last_error = timeout
                    continue
            stats.successes += 1
            breaker.record_success()
            return value
        stats.exhausted += 1
        raise OracleUnavailableError(
            f"oracle still failing after {policy.max_attempts} attempt(s): "
            f"{last_error}",
            last_error=last_error,
        ) from last_error

    # ------------------------------------------------------------------ #
    # FairnessOracle interface
    # ------------------------------------------------------------------ #
    def is_satisfactory(self, ordering: np.ndarray, dataset: Dataset) -> bool:
        return bool(self._guarded(lambda: self.inner.is_satisfactory(ordering, dataset)))

    # ------------------------------------------------------------------ #
    # batched protocol: forward to the inner oracle under the same guards,
    # so the vectorised serving paths stay protected without losing their
    # one-matmul pre-check.  The whole batch is one guarded call: a transient
    # failure retries the batch, and the circuit sees one failure per batch.
    # ------------------------------------------------------------------ #
    def batched_capable(self) -> bool:
        return as_batched(self.inner) is not None

    def is_satisfactory_many(self, orderings: np.ndarray, dataset: Dataset) -> np.ndarray:
        matrix = ordering_matrix(orderings)
        return self._guarded(lambda: evaluate_many(self.inner, matrix, dataset))

    def describe(self) -> str:
        return f"resilient({self.inner.describe()})"
