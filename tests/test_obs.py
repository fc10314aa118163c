"""Behaviour suite for the observability layer (``repro.obs``).

Covers the four pillars the PR promises:

* **Determinism** — trace exports and metrics snapshots are byte-identical
  on a fake clock, whatever order the series were created in;
* **Transparency** — the ``"instrumented"`` engine returns bit-identical
  answers on the 2-D and approximate paths, and its oracle wrapper, a
  :class:`~repro.fairness.oracle.CountingOracle` subclass, reports the
  counter's totals;
* **Replayability** — a recorded workload saves, loads and replays bit for
  bit through a fresh engine, and names the answering engine in every record.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.clock import FakeClock
from repro.core.engine import ApproxConfig, ExactConfig, TwoDConfig, create_engine
from repro.core.maintenance import DatasetDelta
from repro.data.synthetic import make_compas_like
from repro.exceptions import ConfigurationError
from repro.fairness.oracle import CountingOracle
from repro.fairness.proportional import ProportionalOracle
from repro.io.index_store import load_engine, save_engine
from repro.obs import (
    InstrumentedConfig,
    InstrumentedEngine,
    MetricsRegistry,
    TraceRecorder,
    WorkloadRecorder,
)
from repro.obs.instrument import InstrumentedOracle
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, bucket_label
from repro.obs.report import main as report_main
from repro.obs.trace import activated, active_recorder, parse_trace_jsonl, stage_span
from repro.parallel.pool import PoolEngine
from repro.resilience import ChaosEngine
from repro.ranking.scoring import LinearScoringFunction

pytestmark = pytest.mark.obs

#: Small capped approximate config: every approx test in the repo caps the
#: hyperplane budget (the uncapped pipeline is super-linear in n).
CAPPED_APPROX = ApproxConfig(n_cells=25, max_hyperplanes=25)


def _queries(q: int, d: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    weights = np.abs(rng.normal(size=(q, d)))
    weights[np.all(weights == 0.0, axis=1)] = 1.0
    return weights


# --------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------- #
def _drive_spans(clock) -> TraceRecorder:
    recorder = TraceRecorder(clock=clock)
    with recorder.span("engine.suggest_many", q=2):
        with recorder.span("oracle.is_satisfactory_many", q=2):
            clock.advance(0.25)
        with recorder.span("preprocess.pair_chunk", start=0, stop=32) as span:
            clock.advance(0.5)
            span.set("n_pairs", 4)
    return recorder


def test_trace_export_is_byte_identical_on_fake_clock():
    first = _drive_spans(FakeClock()).export_jsonl()
    second = _drive_spans(FakeClock()).export_jsonl()
    assert first == second
    header, spans = parse_trace_jsonl(first)
    assert header["n_spans"] == 3
    assert header["n_dropped"] == 0
    durations = {span["name"]: span["duration"] for span in spans}
    assert durations["oracle.is_satisfactory_many"] == 0.25
    assert durations["preprocess.pair_chunk"] == 0.5
    assert durations["engine.suggest_many"] == 0.75


def test_span_attributes_and_set_land_in_the_export():
    recorder = _drive_spans(FakeClock())
    by_name = {span.name: dict(span.attributes) for span in recorder.spans}
    assert by_name["preprocess.pair_chunk"]["n_pairs"] == 4
    assert by_name["engine.suggest_many"]["q"] == 2


def test_trace_buffer_is_bounded_and_counts_drops():
    clock = FakeClock()
    recorder = TraceRecorder(clock=clock, max_spans=2)
    for index in range(5):
        with recorder.span("engine.suggest", index=index):
            clock.advance(0.01)
    assert len(recorder.spans) == 2
    assert recorder.n_dropped == 3
    header, spans = parse_trace_jsonl(recorder.export_jsonl())
    assert header["n_spans"] == 2
    assert header["n_dropped"] == 3
    assert len(spans) == 2


def test_span_handle_reports_its_duration_even_when_dropped():
    clock = FakeClock()
    recorder = TraceRecorder(clock=clock, max_spans=1)
    handles = []
    for seconds in (0.25, 0.5):
        with recorder.span("engine.suggest") as span:
            assert span.duration is None  # set only once the span closes
            clock.advance(seconds)
        handles.append(span)
    assert recorder.n_dropped == 1
    assert [span.duration for span in recorder.spans] == [0.25]
    assert [handle.duration for handle in handles] == [0.25, 0.5]


def test_stage_span_is_a_no_op_without_an_active_recorder():
    assert active_recorder() is None
    with stage_span("preprocess.pair_chunk", start=0) as span:
        assert span is None  # inactive: nothing recorded, nothing to set


def test_stage_span_records_into_the_activated_recorder():
    clock = FakeClock()
    recorder = TraceRecorder(clock=clock)
    with activated(recorder):
        assert active_recorder() is recorder
        with stage_span("preprocess.pair_chunk", start=0) as span:
            clock.advance(0.125)
            span.set("n_pairs", 9)
    assert active_recorder() is None
    assert recorder.span_names() == ("preprocess.pair_chunk",)
    assert dict(recorder.spans[0].attributes)["n_pairs"] == 9
    assert recorder.spans[0].duration == 0.125


def test_trace_recorder_clear_resets_spans_and_drops():
    clock = FakeClock()
    recorder = TraceRecorder(clock=clock, max_spans=1)
    for _ in range(3):
        with recorder.span("engine.suggest"):
            clock.advance(0.01)
    recorder.clear()
    assert recorder.spans == ()
    assert recorder.n_dropped == 0


def test_trace_recorder_clear_restarts_span_ids():
    """Ids restart at 1, or after the innermost open span, which survives."""
    recorder = TraceRecorder(clock=FakeClock())
    with recorder.span("before"):
        pass
    recorder.clear()
    with recorder.span("after"):
        pass
    assert [span.span_id for span in recorder.spans] == [1]
    with recorder.span("outer"):
        with recorder.span("dropped"):
            pass
        recorder.clear()
        with recorder.span("inner"):
            pass
    assert [(span.name, span.span_id, span.parent_id) for span in recorder.spans] == [
        ("inner", 3, 2),
        ("outer", 2, None),
    ]


#: The package tree whose clock readers the guard below counts.
SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"


def _clock_users() -> tuple[set[str], set[str]]:
    """Modules of ``src/repro`` that import ``time``, and those that name ``monotonic_clock``."""
    imports_time: set[str] = set()
    names_clock: set[str] = set()
    for path in sorted(SRC_REPRO.rglob("*.py")):
        module = path.relative_to(SRC_REPRO.parent).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                if any(alias.name.split(".")[0] == "time" for alias in node.names):
                    imports_time.add(module)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and (node.module or "").split(".")[0] == "time":
                    imports_time.add(module)
            elif (
                (isinstance(node, ast.Name) and node.id == "monotonic_clock")
                or (isinstance(node, ast.Attribute) and node.attr == "monotonic_clock")
                or (isinstance(node, ast.alias) and node.name == "monotonic_clock")
            ):
                names_clock.add(module)
    return imports_time, names_clock


def test_spans_are_the_only_clock_reader():
    """One timing source: only the clock seam imports ``time``, and only it and
    the trace recorder, whose spans read it, name ``monotonic_clock``."""
    imports_time, names_clock = _clock_users()
    assert imports_time == {"repro/clock.py"}
    assert names_clock == {"repro/clock.py", "repro/obs/trace.py"}


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def _populated_registry(order_swapped: bool) -> MetricsRegistry:
    registry = MetricsRegistry()
    series = [("2d", 2), ("approximate", 5)]
    if order_swapped:
        series = series[::-1]
    for engine, count in series:
        registry.counter("engine.queries", engine=engine).inc(count)
    registry.gauge("trace.buffer").set(3)
    registry.histogram("engine.suggest_seconds").observe(0.002)
    return registry


def test_metrics_snapshot_is_independent_of_creation_order():
    first = _populated_registry(order_swapped=False)
    second = _populated_registry(order_swapped=True)
    assert first.to_json() == second.to_json()
    assert first.counter_total("engine.queries") == 7


def test_metrics_merge_adds_and_reset_zeroes():
    first = _populated_registry(order_swapped=False)
    second = _populated_registry(order_swapped=True)
    first.merge(second)
    assert first.counter_total("engine.queries") == 14
    snapshot = first.snapshot()
    histogram = next(
        series
        for series in snapshot["histograms"]
        if series["name"] == "engine.suggest_seconds"
    )
    assert histogram["count"] == 2
    first.reset()
    assert first.counter_total("engine.queries") == 0


def test_metric_names_cannot_change_kind():
    registry = MetricsRegistry()
    registry.counter("engine.queries").inc()
    with pytest.raises(ConfigurationError, match="already registered as a counter"):
        registry.gauge("engine.queries")


def test_bucket_label_covers_bounds_and_overflow():
    assert bucket_label(0.0, DEFAULT_LATENCY_BUCKETS).startswith("le=")
    assert bucket_label(1e9, DEFAULT_LATENCY_BUCKETS) == "le=+inf"


# --------------------------------------------------------------------- #
# instrumented engine: transparency
# --------------------------------------------------------------------- #
def test_instrumented_2d_engine_is_bit_identical(small_compas_2d, race_oracle_2d):
    bare = create_engine(small_compas_2d, race_oracle_2d, TwoDConfig()).preprocess()
    observed = create_engine(
        small_compas_2d, race_oracle_2d, InstrumentedConfig(inner=TwoDConfig())
    ).preprocess()
    queries = _queries(25, 2)
    assert observed.suggest_many(queries) == bare.suggest_many(queries)
    function = LinearScoringFunction(tuple(queries[0]))
    assert observed.suggest(function) == bare.suggest(function)


def test_instrumented_approx_engine_is_bit_identical(small_compas_3d, race_oracle_3d):
    bare = create_engine(small_compas_3d, race_oracle_3d, CAPPED_APPROX).preprocess()
    observed = create_engine(
        small_compas_3d, race_oracle_3d, InstrumentedConfig(inner=CAPPED_APPROX)
    ).preprocess()
    queries = _queries(10, 3)
    assert observed.suggest_many(queries) == bare.suggest_many(queries)


def test_instrumented_oracle_counts_match_counting_oracle(
    small_compas_2d, race_oracle_2d
):
    counting = CountingOracle(race_oracle_2d)
    bare = create_engine(small_compas_2d, counting, TwoDConfig()).preprocess()
    observed = create_engine(
        small_compas_2d, race_oracle_2d, InstrumentedConfig(inner=TwoDConfig())
    ).preprocess()
    queries = _queries(25, 2)
    assert observed.suggest_many(queries) == bare.suggest_many(queries)
    assert observed.instrumented_oracle.calls == counting.calls
    assert observed.metrics.counter_total("oracle.calls") == counting.calls


def test_span_coverage_reaches_every_stage(small_compas_2d, race_oracle_2d):
    observed = create_engine(
        small_compas_2d, race_oracle_2d, InstrumentedConfig(inner=TwoDConfig())
    ).preprocess()
    observed.suggest_many(_queries(5, 2))
    names = set(observed.recorder.span_names())
    assert "engine.preprocess" in names
    assert "engine.suggest_many" in names
    assert any(name.startswith("oracle.") for name in names)
    assert any(name.startswith("preprocess.") for name in names)


def _children(recorder: TraceRecorder, parent) -> list:
    return [span for span in recorder.spans if span.parent_id == parent.span_id]


def test_exact_pipeline_stage_spans_nest_and_count():
    """SATREGIONS spans its three stages, the insert-only delta two of them,
    and an unsatisfactory MDBASELINE query its three online stages."""
    attributes = ["c_days_from_compas", "juv_other_count", "start"]
    oracle = CountingOracle(
        ProportionalOracle("race", "African-American", 0.3, max_fraction=0.60)
    )
    engine = create_engine(
        make_compas_like(n=6, seed=2).project(attributes), oracle, ExactConfig()
    )
    recorder = TraceRecorder()
    with activated(recorder):
        with recorder.span("op.preprocess"):
            engine.preprocess()
    (operation,) = [span for span in recorder.spans if span.name == "op.preprocess"]
    stages = _children(recorder, operation)
    assert [span.name for span in stages] == [
        "preprocess.hyperplane_construction",
        "preprocess.arrangement_build",
        "preprocess.region_evaluation",
    ]
    construction, build, evaluation = (dict(span.attributes) for span in stages)
    tree = engine._exact_tree
    assert construction["n_hyperplanes"] == tree.n_hyperplanes == engine.index.n_hyperplanes
    assert build["split_tests"] == tree.split_tests > 0
    assert evaluation["n_regions"] == engine.index.n_regions
    assert evaluation["oracle_calls"] == engine.index.oracle_calls == oracle.calls

    split_tests_before, calls_before = tree.split_tests, oracle.calls
    inserts = ((0.5, 0.4, 0.3), (0.2, 0.9, 0.6))
    insert_types = {
        name: tuple(np.asarray(column)[:2]) for name, column in engine.dataset.types.items()
    }
    recorder.clear()
    with activated(recorder):
        with recorder.span("op.apply_delta"):
            report = engine.apply_delta(
                DatasetDelta(inserts=inserts, insert_types=insert_types)
            )
    assert report.strategy == "incremental"
    (operation,) = [span for span in recorder.spans if span.name == "op.apply_delta"]
    (maintenance,) = _children(recorder, operation)
    assert maintenance.name == "maintenance.apply_delta"
    stages = _children(recorder, maintenance)
    assert [span.name for span in stages] == [
        "preprocess.arrangement_build",
        "preprocess.region_evaluation",
    ]
    build, evaluation = (dict(span.attributes) for span in stages)
    assert build["split_tests"] == engine._exact_tree.split_tests - split_tests_before > 0
    assert evaluation["n_regions"] == engine.index.n_regions
    assert evaluation["oracle_calls"] == engine.index.oracle_calls == oracle.calls - calls_before

    calls_before = oracle.calls
    recorder.clear()
    with activated(recorder):
        with recorder.span("op.suggest"):
            result = engine.suggest(LinearScoringFunction((0.5, 0.3, 0.2)))
    assert not result.satisfactory
    (operation,) = [span for span in recorder.spans if span.name == "op.suggest"]
    stages = _children(recorder, operation)
    assert [span.name for span in stages] == [
        "query.precheck",
        "query.region_distances",
        "query.blend_verification",
    ]
    _precheck, distances, verification = (dict(span.attributes) for span in stages)
    polygons = [region.region.polygon for region in engine.index.satisfactory_regions]
    assert distances["n_regions"] == len(polygons) > 0
    assert distances["n_edges"] == sum(len(polygon) for polygon in polygons)
    assert distances["minimize_calls"] == sum(1 for polygon in polygons if not polygon) == 0
    assert 1 <= verification["oracle_calls"] == oracle.calls - calls_before - 1


def test_instrumented_engine_counts_queries_and_latency(
    small_compas_2d, race_oracle_2d
):
    observed = create_engine(
        small_compas_2d, race_oracle_2d, InstrumentedConfig(inner=TwoDConfig())
    ).preprocess()
    observed.suggest_many(_queries(7, 2))
    assert observed.metrics.counter_total("engine.queries") == 7
    assert observed.metrics.counter_total("engine.suggest_many") == 1
    snapshot = observed.metrics.snapshot()
    batch_latency = next(
        series
        for series in snapshot["histograms"]
        if series["name"] == "engine.suggest_many_seconds"
    )
    assert batch_latency["count"] == 1


def test_instrumented_latency_histograms_are_the_engine_spans(
    small_compas_2d, race_oracle_2d, ticking_clock
):
    observed = InstrumentedEngine(
        small_compas_2d,
        race_oracle_2d,
        InstrumentedConfig(inner=TwoDConfig(), record_workload=True),
        clock=ticking_clock,
    ).preprocess()
    for weights in _queries(3, 2):
        observed.suggest(weights)
    observed.suggest_many(_queries(4, 2))
    histograms = {
        series["name"]: series for series in observed.metrics.snapshot()["histograms"]
    }
    calls = [
        span
        for span in observed.recorder.spans
        if span.name in ("engine.suggest", "engine.suggest_many")
    ]
    for name, count in (("engine.suggest", 3), ("engine.suggest_many", 1)):
        durations = [span.duration for span in calls if span.name == name]
        assert len(durations) == count
        assert all(float(duration).is_integer() and duration >= 1 for duration in durations)
        assert histograms[f"{name}_seconds"]["count"] == count
        assert histograms[f"{name}_seconds"]["sum"] == sum(durations)
    # The workload log's batch_elapsed is the same span duration, per query.
    batch_sizes = [1, 1, 1, 4]
    assert [record["batch_elapsed"] for record in observed.workload.records()] == [
        span.duration for span, size in zip(calls, batch_sizes) for _ in range(size)
    ]


def test_instrumented_maintenance_records_one_span_per_operation(
    small_compas_2d, race_oracle_2d
):
    """The wrapper's ``engine.*`` span holds the inner engine's ``maintenance.*`` span."""
    engine = create_engine(
        small_compas_2d, race_oracle_2d, InstrumentedConfig(inner=TwoDConfig())
    ).preprocess()
    engine.recorder.clear()
    engine.apply_delta(DatasetDelta(deletes=(3,)))
    names = [span.name for span in engine.recorder.spans]
    assert names.count("maintenance.apply_delta") == 1
    (outer,) = [span for span in engine.recorder.spans if span.name == "engine.apply_delta"]
    assert [span.name for span in _children(engine.recorder, outer)] == [
        "maintenance.apply_delta"
    ]
    assert engine.metrics.counter_total("maintenance.apply_delta") == 1


def test_from_engine_wraps_a_prebuilt_engine(small_compas_2d, race_oracle_2d):
    engine = create_engine(small_compas_2d, race_oracle_2d, TwoDConfig()).preprocess()
    baseline = engine.suggest_many(_queries(5, 2))
    observed = InstrumentedEngine.from_engine(engine, record_workload=True)
    assert observed.inner is engine
    assert isinstance(engine.oracle, InstrumentedOracle)
    assert observed.suggest_many(_queries(5, 2)) == baseline
    assert observed.workload.n_queries == 5


def test_from_engine_counts_the_precheck_of_a_loaded_approximate_engine(
    shared_compas_3d, shared_race_oracle_3d, tmp_path
):
    """A loaded approximate engine's online pre-check reads the rebound engine oracle."""
    engine = create_engine(
        shared_compas_3d, shared_race_oracle_3d, ApproxConfig(n_cells=16, max_hyperplanes=20)
    ).preprocess()
    save_engine(engine, tmp_path / "engine.json")
    observed = InstrumentedEngine.from_engine(
        load_engine(tmp_path / "engine.json", shared_race_oracle_3d)
    )
    queries = _queries(4, 3)
    assert observed.suggest_many(queries) == engine.suggest_many(queries)
    assert observed.metrics.counter_total("oracle.calls") == 4
    observed.suggest(LinearScoringFunction(tuple(queries[0])))
    assert observed.metrics.counter_total("oracle.calls") == 5 == observed.instrumented_oracle.calls


def test_instrumented_config_rejects_nesting_and_bad_bounds():
    with pytest.raises(ConfigurationError, match="does not nest"):
        InstrumentedConfig(inner=InstrumentedConfig())
    with pytest.raises(ConfigurationError, match="max_spans"):
        InstrumentedConfig(max_spans=0)


def test_instrumented_engine_rejects_foreign_config(small_compas_2d, race_oracle_2d):
    with pytest.raises(ConfigurationError, match="InstrumentedConfig"):
        InstrumentedEngine(small_compas_2d, race_oracle_2d, TwoDConfig())


def test_instrumented_engine_is_not_persistable(small_compas_2d, race_oracle_2d):
    observed = create_engine(
        small_compas_2d, race_oracle_2d, InstrumentedConfig(inner=TwoDConfig())
    )
    with pytest.raises(ConfigurationError, match="not\\s+persistable"):
        observed.to_payload()
    with pytest.raises(ConfigurationError, match="not persistable"):
        InstrumentedEngine.from_payload({}, race_oracle_2d)


# --------------------------------------------------------------------- #
# workload recording and replay
# --------------------------------------------------------------------- #
def _with_tier_keys(path: Path) -> Path:
    """The log as older versions wrote it: every record repeats its ``engine`` as ``tier``."""
    header, *body = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in body]
    lines = [json.dumps({**record, "tier": record["engine"]}, sort_keys=True) for record in records]
    older = path.with_name(f"older-{path.name}")
    older.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    return older


@pytest.mark.parametrize("written_by", ["current", "older"])
def test_workload_save_load_replay_is_bit_identical(
    tmp_path, capsys, small_compas_2d, race_oracle_2d, written_by
):
    """A log loads, replays and reports, also as older versions wrote it (with ``tier``)."""
    recording = create_engine(
        small_compas_2d,
        race_oracle_2d,
        InstrumentedConfig(inner=TwoDConfig(), record_workload=True),
    ).preprocess()
    recording.suggest_many(_queries(12, 2))
    path = recording.workload.save(tmp_path / "workload.jsonl")
    if written_by == "older":
        path = _with_tier_keys(path)

    loaded = WorkloadRecorder.load(path)
    assert loaded.n_queries == 12
    assert {"tier" in record for record in loaded.records()} == {written_by == "older"}
    fresh = create_engine(
        small_compas_2d, race_oracle_2d, InstrumentedConfig(inner=TwoDConfig())
    ).preprocess()
    report = loaded.replay(fresh)
    assert report.bit_identical
    assert report.n_queries == 12
    assert report.n_skipped == 0
    assert report.n_mismatched == 0
    assert report_main(["report", "--workload", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("workload: 12 queries")
    assert out.splitlines()[1].split() == ["engine", "2d", "n=12"]
    assert "tier" not in out


def test_workload_records_carry_context_and_buckets(small_compas_2d, race_oracle_2d):
    recording = create_engine(
        small_compas_2d,
        race_oracle_2d,
        InstrumentedConfig(inner=TwoDConfig(), record_workload=True),
    ).preprocess()
    recording.workload.set_context(session="unit-test")
    recording.suggest_many(_queries(3, 2))
    records = recording.workload.records()
    assert len(records) == 3
    for record in records:
        assert record["engine"] == "2d"
        assert "tier" not in record
        assert record["context"] == {"session": "unit-test"}
        assert record["batch_size"] == 3
        assert record["latency_bucket"].startswith("le=")


def test_workload_logs_pool_failures_and_replay_skips_them(
    tmp_path, small_compas_2d, race_oracle_2d
):
    """A pool's ``QueryFailure`` is logged as a failed record under the engine's name.

    The last row is no weight vector at all (``0, 0``): its record carries no
    angles, and the log still saves, loads and replays.
    """
    inner = create_engine(small_compas_2d, race_oracle_2d, TwoDConfig()).preprocess()
    chaotic = ChaosEngine(inner, failure_rate=0.3, seed=4)
    matrix = np.vstack([_queries(8, 2), [[0.0, 0.0]]])
    failed = [chaotic.would_fail(row) for row in matrix[:-1]] + [True]
    assert 0 < sum(failed[:-1]) < len(failed) - 1, "the seed must fault some queries, not all"
    with PoolEngine.from_engine(chaotic, n_workers=1) as pool:
        observed = InstrumentedEngine.from_engine(pool, record_workload=True)
        observed.suggest_many(matrix)
    loaded = WorkloadRecorder.load(observed.workload.save(tmp_path / "workload.jsonl"))
    records = loaded.records()
    assert [record["engine"] for record in records] == ["pool"] * len(matrix)
    assert [bool(record.get("failed")) for record in records] == failed
    assert ["angles" in record for record in records] == [not flag for flag in failed]
    report = loaded.replay(inner)
    assert report.bit_identical
    assert (report.n_queries, report.n_skipped) == (failed.count(False), sum(failed))


def test_workload_load_rejects_foreign_formats(tmp_path):
    path = tmp_path / "bogus.jsonl"
    path.write_text(json.dumps({"format": "something/else"}) + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        WorkloadRecorder.load(path)


def test_replay_flags_mismatches_against_a_different_engine(
    small_compas_2d, race_oracle_2d, paper_2d_dataset, balanced_topk_oracle
):
    recording = create_engine(
        small_compas_2d,
        race_oracle_2d,
        InstrumentedConfig(inner=TwoDConfig(), record_workload=True),
    ).preprocess()
    recording.suggest_many(_queries(6, 2))
    other = create_engine(
        paper_2d_dataset, balanced_topk_oracle, InstrumentedConfig(inner=TwoDConfig())
    ).preprocess()
    report = recording.workload.replay(other)
    assert not report.bit_identical
    assert report.n_mismatched + report.n_skipped > 0


# --------------------------------------------------------------------- #
# report CLI
# --------------------------------------------------------------------- #
def test_report_cli_renders_all_three_artifacts(
    tmp_path, capsys, small_compas_2d, race_oracle_2d
):
    recording = create_engine(
        small_compas_2d,
        race_oracle_2d,
        InstrumentedConfig(inner=TwoDConfig(), record_workload=True),
    ).preprocess()
    recording.suggest_many(_queries(5, 2))
    metrics_path = recording.metrics.save(tmp_path / "metrics.json")
    trace_path = recording.recorder.save(tmp_path / "trace.jsonl")
    workload_path = recording.workload.save(tmp_path / "workload.jsonl")

    status = report_main(
        [
            "report",
            "--metrics",
            str(metrics_path),
            "--trace",
            str(trace_path),
            "--workload",
            str(workload_path),
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "metrics:" in out
    assert "trace:" in out
    assert "workload: 5 queries" in out


def test_report_cli_requires_at_least_one_artifact(capsys):
    assert report_main(["report"]) == 2
    assert "nothing to report" in capsys.readouterr().err


def test_report_cli_rejects_misformatted_files(tmp_path, capsys):
    bogus = tmp_path / "metrics.json"
    bogus.write_text(json.dumps({"format": "nope"}), encoding="utf-8")
    assert report_main(["report", "--metrics", str(bogus)]) == 2
    assert "repro.obs report:" in capsys.readouterr().err
