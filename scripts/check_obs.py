#!/usr/bin/env python
"""Observability smoke gate: deterministic traces and metrics, one timing source.

Two round trips with no dataset, then two small runs on a clock that ticks
once per read, so the gate runs in about a second:

1. **Trace export** — drive a :class:`repro.obs.trace.TraceRecorder` on a
   :class:`repro.clock.FakeClock` through a nested span tree,
   twice from scratch, and require the two ``export_jsonl()`` texts to be
   byte-identical and to parse back through ``parse_trace_jsonl``.
2. **Metrics snapshot** — exercise counters, gauges and histograms on two
   :class:`repro.obs.metrics.MetricsRegistry` instances in different
   creation orders, and require byte-identical ``to_json()`` output plus a
   correct ``merge``/``reset`` round trip.
3. **Engine latency** — an instrumented 2-D engine's ``engine.suggest`` and
   ``engine.suggest_many`` latency histograms must sum to exactly the
   durations of its spans of those names.
4. **Experiment timings** — Fig. 17 at one small ``n``, with the ticking
   clock as the recorders' default, must report a whole number of ticks.

Usage::

    PYTHONPATH=src python scripts/check_obs.py

Exits 0 when the observability layer is deterministic, 1 otherwise.  Runs as
a gate inside ``scripts/check_all.py``; the full behaviour suite lives in
``tests/test_obs.py`` (marker ``obs``).
"""

from __future__ import annotations

import sys


def _build_trace(clock) -> str:
    from repro.obs.trace import TraceRecorder

    recorder = TraceRecorder(clock=clock)
    with recorder.span("engine.suggest_many", q=3):
        with recorder.span("oracle.is_satisfactory_many", q=3):
            clock.advance(0.25)
        with recorder.span("preprocess.pair_chunk", start=0, stop=64) as span:
            clock.advance(0.5)
            span.set("n_pairs", 7)
    return recorder.export_jsonl()


def check_trace_determinism() -> list[str]:
    from repro.obs.trace import parse_trace_jsonl
    from repro.clock import FakeClock

    first = _build_trace(FakeClock())
    second = _build_trace(FakeClock())
    errors = []
    if first != second:
        errors.append("trace exports differ across two identical FakeClock runs")
    header, spans = parse_trace_jsonl(first)
    if header["n_spans"] != 3 or len(spans) != 3:
        errors.append(f"expected 3 spans in the export, got {header} / {len(spans)}")
    durations = {span["name"]: span["duration"] for span in spans}
    if durations.get("oracle.is_satisfactory_many") != 0.25:
        errors.append("FakeClock durations did not land in the spans")
    return errors


def _build_metrics(order_swapped: bool):
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    series = [("2d", 2), ("approximate", 5)]
    if order_swapped:
        series = series[::-1]
    for engine, count in series:
        registry.counter("engine.queries", engine=engine).inc(count)
    registry.gauge("trace.buffer", recorder="main").set(3)
    registry.histogram("engine.suggest_seconds").observe(0.002)
    registry.histogram("engine.suggest_seconds").observe(0.4)
    return registry


def check_metrics_determinism() -> list[str]:
    errors = []
    first = _build_metrics(order_swapped=False)
    second = _build_metrics(order_swapped=True)
    if first.to_json() != second.to_json():
        errors.append("metrics snapshots differ across series creation orders")
    if first.counter_total("engine.queries") != 7:
        errors.append("counter_total did not sum the labeled series")
    first.merge(second)
    if first.counter_total("engine.queries") != 14:
        errors.append("merge did not add the other registry's counters")
    first.reset()
    if first.counter_total("engine.queries") != 0:
        errors.append("reset did not zero the series in place")
    return errors


class _TickingClock:
    """A clock that advances one whole tick on every read."""

    def __init__(self) -> None:
        self.ticks = 0.0

    def __call__(self) -> float:
        self.ticks += 1.0
        return self.ticks


def check_engine_latency_is_its_span() -> list[str]:
    from repro.core.engine import TwoDConfig
    from repro.data.synthetic import make_compas_like
    from repro.fairness.proportional import ProportionalOracle
    from repro.obs.instrument import InstrumentedConfig, InstrumentedEngine

    dataset = make_compas_like(n=80, seed=3).project(["c_days_from_compas", "juv_other_count"])
    oracle = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.10
    )
    engine = InstrumentedEngine(
        dataset, oracle, InstrumentedConfig(inner=TwoDConfig()), clock=_TickingClock()
    ).preprocess()
    engine.suggest((1.0, 0.5))
    engine.suggest_many([(1.0, 0.5), (0.2, 0.9)])
    sums = {series["name"]: series["sum"] for series in engine.metrics.snapshot()["histograms"]}
    errors = []
    for name in ("engine.suggest", "engine.suggest_many"):
        spans = sum(span.duration for span in engine.recorder.spans if span.name == name)
        if sums.get(f"{name}_seconds") != spans:
            errors.append(
                f"{name}_seconds sums {sums.get(f'{name}_seconds')} ticks, its spans {spans}"
            )
    return errors


def check_experiment_reads_spans() -> list[str]:
    import repro.obs.trace as trace
    from repro.experiments.workloads import experiment_fig17_2d_preprocessing

    default = trace.monotonic_clock
    trace.monotonic_clock = _TickingClock()
    try:
        sweep = experiment_fig17_2d_preprocessing(n_values=(30,))
    finally:
        trace.monotonic_clock = default
    seconds = sweep.series["preprocess_seconds"].ys
    if not seconds or not all(value >= 1 and value.is_integer() for value in seconds):
        return [f"Fig. 17 reported {seconds}, not whole ticks of the recorders' clock"]
    return []


def main() -> int:
    errors = (
        check_trace_determinism()
        + check_metrics_determinism()
        + check_engine_latency_is_its_span()
        + check_experiment_reads_spans()
    )
    for error in errors:
        print(f"check_obs: {error}")
    if errors:
        return 1
    print(
        "check_obs: OK (byte-identical trace exports and metrics snapshots; "
        "latencies and experiment timings read spans)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
