"""Timing at a reference machine speed.

The machines this benchmark runs on share their cores with other tenants and
switch between speed states up to about 1.6x apart, each lasting from seconds
to minutes.  A wall time read in a slow state says more about the neighbours
than about the program, and no statistic taken inside one run can remove a
state that lasts the whole run.

:class:`Speedometer` therefore times a fixed reference task
(:func:`reference_work`) between the timed blocks of a run and rescales
each block's wall times by ``REFERENCE_S`` over the mean of the reference
times just before and just after it.  A gated time is then "the time the
operation takes on a machine that runs the reference task in
``REFERENCE_S`` seconds".  The reference task uses only Python, NumPy and
SciPy, never the program under ``src/``, so a change of the program moves
the rescaled times exactly as it moves the wall times, while a change of the
machine's state moves both the block and the reference.  Neighbours slow
interpreter code, NumPy kernels and solvers by different amounts, so the task
mixes all the kinds of work the program does (see :func:`reference_work`).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog, minimize

__all__ = ["REFERENCE_S", "reference_work", "Speedometer"]

#: Seconds the reference task takes, about, on a 2-vCPU KVM guest of an
#: Intel Xeon host in a fast state; the unit the gated times are expressed in.
REFERENCE_S = 0.030

_clock = time.perf_counter

_RNG = np.random.default_rng(0)
_CONSTRAINTS = _RNG.random((40, 3))
_BOUNDS = _RNG.random(40) + 1.0
_POINTS = _RNG.random((300, 3))
_TARGET = np.array([0.7, 0.2, 0.1])


def _angle(point: np.ndarray) -> float:
    cosine = float(point @ _TARGET) / (np.linalg.norm(point) * np.linalg.norm(_TARGET))
    return float(np.arccos(min(1.0, max(-1.0, cosine))))


def reference_work() -> float:
    """Run the fixed reference task once; returns a checksum of its results.

    Four parts of roughly equal time: an integer loop over a dict, small
    NumPy products with argsorts and prefix sums, HiGHS linear programs, and
    one SLSQP minimisation of an angle under linear constraints.  Each part
    follows one kind of work in the program, and the mix reads a speed that
    suits all of them: over 600 interleaved samples on a machine changing
    state, the time of the gated operations (grid3d and exact3d ``suggest``,
    maintain2d ``apply_delta``) rose with the mix's time at a log-log slope
    of 0.8 to 1.1.  Sorting and grouping Python tuples, tried as a fifth
    part, tracked the machine's state at a slope of 0.2 only and was left
    out.
    """
    total = 0
    table: dict[int, int] = {}
    for step in range(60_000):
        total += step * step % 7
        table[step % 97] = total
    below = 0
    for step in range(400):
        order = np.argsort(_POINTS @ _CONSTRAINTS[step % 40])
        below += int(np.cumsum(order < 150)[-1])
    optimum = 0.0
    for step in range(4):
        solution = linprog(
            -np.ones(3),
            A_ub=_CONSTRAINTS,
            b_ub=_BOUNDS + 0.01 * step,
            bounds=[(0.0, None)] * 3,
            method="highs",
        )
        optimum += float(solution.fun)
    closest = minimize(
        _angle,
        x0=np.full(3, 0.2),
        method="SLSQP",
        bounds=[(0.0, 1.0)] * 3,
        constraints=[
            {"type": "ineq", "fun": lambda point: 0.3 * _BOUNDS[:10] - _CONSTRAINTS[:10] @ point}
        ],
        options={"maxiter": 200, "ftol": 1e-10},
    )
    return total + below + optimum + float(closest.fun)


class Speedometer:
    """Reads the machine's speed between timed blocks.

    Create it after the imports; it runs the reference task once untimed and
    once timed.  After each timed block call :meth:`factor`, which times the
    task again and returns the scale for the wall times of the block.
    """

    def __init__(self) -> None:
        reference_work()
        #: Every timed run of the reference task, in seconds.
        self.samples: list[float] = []
        self._last = self._measure()

    def _measure(self) -> float:
        start = _clock()
        reference_work()
        seconds = _clock() - start
        self.samples.append(seconds)
        return seconds

    def factor(self) -> float:
        """``REFERENCE_S`` over the mean reference time around the last block."""
        now = self._measure()
        factor = 2.0 * REFERENCE_S / (self._last + now)
        self._last = now
        return factor
