"""The injectable monotonic-clock seam.

Observability code (:mod:`repro.obs`) must never call ``time.*`` directly —
the ``obs-clock`` contract rule (:mod:`repro.analysis.rules`) enforces that
every timestamp flows through an injectable clock so two identical runs under
:class:`FakeClock` export byte-identical traces and metrics snapshots.  This
module is the one place the real clock is named: it lives *outside*
``repro.obs`` so the rule can stay absolute there, and
:meth:`repro.obs.trace.TraceRecorder.span` is the only code that reads it.

``monotonic_clock`` is the production default (``time.monotonic`` — legal
under the ``determinism`` rule, which only bans wall-clock reads).  Tests and
replayers pass their own zero-argument ``() -> float`` callable instead.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.exceptions import ConfigurationError

#: Zero-argument callable returning monotonically non-decreasing seconds.
Clock = Callable[[], float]

#: The production clock; inject a ``FakeClock`` for deterministic runs.
monotonic_clock: Clock = time.monotonic


class FakeClock:
    """A manual clock for deterministic span timings.

    Calling the instance returns the current simulated time;
    :meth:`advance` moves it forward.  Pass the instance wherever a ``clock``
    callable is expected (``TraceRecorder(clock=...)``) and the spans it
    records last exactly the simulated time that passed inside them.

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
        """Move simulated time forward."""
        if seconds < 0:
            raise ConfigurationError("the clock cannot move backwards")
        self._now += float(seconds)


__all__ = ["Clock", "monotonic_clock", "FakeClock"]
