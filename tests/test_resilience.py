"""Tests for the clock seam of the spans and the callable-oracle verdict coercion."""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.obs.trace
from repro.clock import FakeClock, monotonic_clock
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError, OracleError
from repro.fairness.oracle import CallableOracle
from repro.obs.trace import TraceRecorder

ORDERING = np.array([0, 1, 2])


class TestFakeClock:
    def test_advances_monotonically(self):
        clock = FakeClock(start=10.0)
        assert clock() == 10.0
        clock.advance(2.5)
        assert clock() == 12.5
        with pytest.raises(ConfigurationError):
            clock.advance(-1.0)

    def test_starts_at_zero_and_reads_without_moving(self):
        clock = FakeClock()
        assert clock() == 0.0
        assert clock() == 0.0

    def test_zero_advance_is_allowed(self):
        clock = FakeClock(start=3.0)
        clock.advance(0.0)
        assert clock() == 3.0

    def test_rejected_backwards_move_leaves_the_time_unchanged(self):
        clock = FakeClock(start=1.0)
        with pytest.raises(ConfigurationError, match="backwards"):
            clock.advance(-0.5)
        assert clock() == 1.0

    def test_readings_are_floats(self):
        clock = FakeClock(start=2)
        clock.advance(1)
        assert type(clock()) is float and clock() == 3.0


class TestClockSeam:
    """The spans read the one production clock, or the clock a caller injects."""

    def test_production_clock_is_monotonic_time(self):
        assert monotonic_clock is time.monotonic

    def test_span_lasts_the_simulated_time(self):
        clock = FakeClock(start=100.0)
        recorder = TraceRecorder(clock=clock)
        with recorder.span("engine.suggest") as span:
            clock.advance(0.75)
        assert span.duration == 0.75
        assert recorder.spans[0].duration == 0.75

    def test_a_new_recorder_defaults_to_the_module_clock(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(repro.obs.trace, "monotonic_clock", clock)
        recorder = TraceRecorder()
        with recorder.span("engine.suggest") as span:
            clock.advance(2.0)
        assert span.duration == 2.0


# --------------------------------------------------------------------------- #
# CallableOracle verdict coercion (the scalar-coercion satellite)
# --------------------------------------------------------------------------- #
class TestCallableOracleCoercion:
    def _dataset(self) -> Dataset:
        return Dataset(
            scores=np.array([[1.0, 2.0], [2.0, 1.0]]),
            scoring_attributes=["x", "y"],
            name="tiny",
        )

    def test_accepts_python_and_numpy_bool(self):
        dataset = self._dataset()
        assert CallableOracle(lambda o, d: True).is_satisfactory(ORDERING, dataset)
        assert CallableOracle(lambda o, d: np.bool_(True)).is_satisfactory(
            ORDERING, dataset
        )

    def test_unwraps_zero_dim_arrays(self):
        dataset = self._dataset()
        oracle = CallableOracle(lambda o, d: np.asarray(o[0] == 0).all())
        assert oracle.is_satisfactory(np.array([0, 1]), dataset) is True
        assert oracle.is_satisfactory(np.array([1, 0]), dataset) is False

    def test_accepts_zero_one_integers(self):
        dataset = self._dataset()
        assert CallableOracle(lambda o, d: 1).is_satisfactory(ORDERING, dataset)
        assert not CallableOracle(lambda o, d: np.int64(0)).is_satisfactory(
            ORDERING, dataset
        )

    def test_rejects_multi_element_arrays_with_clear_error(self):
        oracle = CallableOracle(lambda o, d: np.array([True, False]), "vectorised")
        with pytest.raises(OracleError, match="shape"):
            oracle.is_satisfactory(ORDERING, self._dataset())

    def test_rejects_none_and_floats_naming_the_type(self):
        dataset = self._dataset()
        with pytest.raises(OracleError, match="NoneType"):
            CallableOracle(lambda o, d: None).is_satisfactory(ORDERING, dataset)
        with pytest.raises(OracleError, match="float"):
            CallableOracle(lambda o, d: 0.7).is_satisfactory(ORDERING, dataset)
        with pytest.raises(OracleError):
            CallableOracle(lambda o, d: 2).is_satisfactory(ORDERING, dataset)
