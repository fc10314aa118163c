"""Retry, backoff and circuit-breaker policies for flaky oracles and engines.

The paper treats the fairness oracle as an external black box — a human
expert, a policy service, an audit API — and external dependencies fail.
This module holds the *policy* half of the resilience layer: pure, clock-
injectable decision objects with no I/O of their own, so every behaviour is
deterministic under test.

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *deterministic* jitter (the jitter draw is seeded per attempt, so a retry
  schedule is reproducible run to run);
* :class:`CircuitBreaker` — opens after N consecutive failures, cools down
  for a configured period, then half-opens to probe the dependency;
* :class:`FakeClock` — a manual clock whose ``__call__`` returns simulated
  time and whose :meth:`FakeClock.advance` doubles as an instant "sleep",
  letting the chaos suite exercise timeouts and cooldowns without real delay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clock import monotonic_clock
from repro.exceptions import ConfigurationError, TransientOracleError

__all__ = [
    "RetryPolicy",
    "CircuitBreaker",
    "FakeClock",
    "is_transient_failure",
]


def is_transient_failure(error: BaseException) -> bool:
    """Default transient-vs-permanent classification of an oracle failure.

    Transient (worth retrying): the library's own
    :class:`~repro.exceptions.TransientOracleError` hierarchy (which includes
    :class:`~repro.exceptions.OracleTimeoutError`), plus the standard
    environmental failures a remote oracle realistically raises —
    ``TimeoutError``, ``ConnectionError`` and ``OSError``.  Everything else —
    misconfiguration, contract violations, wrong shapes — is permanent and
    should surface immediately rather than burn the retry budget.
    """
    return isinstance(
        error, (TransientOracleError, TimeoutError, ConnectionError, OSError)
    )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Attributes
    ----------
    max_attempts:
        Total attempts, including the first call (1 = no retry).
    base_delay:
        Backoff before the second attempt, in seconds.
    multiplier:
        Exponential growth factor between consecutive backoffs.
    max_delay:
        Cap on the un-jittered backoff, in seconds.
    jitter:
        Fraction of the delay randomised symmetrically around it (0.1 means
        the delay lands in ``[0.9d, 1.1d]``).  The draw is seeded with
        ``(seed, attempt)``, so a schedule is fully deterministic.
    seed:
        Seed of the jitter draws.

    >>> RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0).backoff(2)
    0.2
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")

    def backoff(self, attempt: int) -> float:
        """Seconds to wait after failed attempt number ``attempt`` (1-based).

        Deterministic: the same policy always yields the same schedule.
        """
        if attempt < 1:
            raise ConfigurationError("attempt numbers are 1-based")
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter and delay > 0.0:
            draw = np.random.default_rng((self.seed, attempt)).random()
            delay *= 1.0 + self.jitter * (2.0 * draw - 1.0)
        return delay

    def schedule(self) -> tuple[float, ...]:
        """The full backoff schedule (one entry per retry-able failure).

        >>> len(RetryPolicy(max_attempts=4).schedule())
        3
        """
        return tuple(self.backoff(attempt) for attempt in range(1, self.max_attempts))


class CircuitBreaker:
    """Trip after ``failure_threshold`` consecutive failures; probe after cooldown.

    States follow the classic pattern:

    * ``closed`` — calls flow; consecutive failures are counted;
    * ``open`` — calls are rejected without touching the dependency until
      ``recovery_time`` seconds (on the injected clock) have passed;
    * ``half_open`` — one or more trial calls are let through; a success
      closes the circuit, a failure re-opens it and restarts the cooldown.

    The clock is injectable so tests (and the chaos suite) drive state
    transitions with a :class:`FakeClock` instead of real waiting.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
        clock=None,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if recovery_time < 0:
            raise ConfigurationError("recovery_time must be non-negative")
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self._clock = clock if clock is not None else monotonic_clock
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self.n_opens = 0

    @property
    def state(self) -> str:
        """Current state: ``"closed"``, ``"open"`` or ``"half_open"``."""
        # Promote open -> half_open lazily once the cooldown elapsed.
        if (
            self._state == "open"
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.recovery_time
        ):
            self._state = "half_open"
        return self._state

    @property
    def consecutive_failures(self) -> int:
        """Failures recorded since the last success."""
        return self._consecutive_failures

    def allow(self) -> bool:
        """True if a call may be attempted right now."""
        return self.state != "open"

    def record_success(self) -> None:
        """Note a successful call: resets the count and closes the circuit."""
        if self._consecutive_failures == 0 and self._state == "closed":
            return  # already clean — keep the happy path write-free
        self._consecutive_failures = 0
        self._state = "closed"
        self._opened_at = None

    def record_failure(self) -> None:
        """Note a failed call; trips the breaker at the threshold."""
        self._consecutive_failures += 1
        tripped_half_open = self._state == "half_open"
        if tripped_half_open or self._consecutive_failures >= self.failure_threshold:
            if self._state != "open":
                self.n_opens += 1
            self._state = "open"
            self._opened_at = self._clock()


class FakeClock:
    """A manual clock for deterministic timeout/cooldown tests.

    Calling the instance returns the current simulated time;
    :meth:`advance` moves it forward.  Pass the instance itself wherever a
    ``clock`` callable is expected and ``clock.advance`` wherever a ``sleep``
    callable is expected — "sleeping" then takes zero wall time while still
    moving simulated time, and a :class:`~repro.resilience.chaos.ChaosOracle`
    configured with the same clock makes injected latency observable to
    deadline checks.

    >>> clock = FakeClock()
    >>> clock.advance(1.5)
    >>> clock()
    1.5
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move simulated time forward (doubles as an instant ``sleep``)."""
        if seconds < 0:
            raise ConfigurationError("the clock cannot move backwards")
        self._now += float(seconds)
