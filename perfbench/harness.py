"""One benchmark run: set-up, preprocessing, the closed loop and the gates.

``--trace 0`` measures the end-to-end metrics with tracing off, in rounds
that each repeat set-up and preprocessing and then run one closed-loop
client's share of the requested seconds.  A cycle is one
``suggest_many`` batch followed by single ``suggest`` calls on the cycle's
first queries; on the maintenance workload an ``apply_delta`` precedes the
reads.

``--trace 1`` runs a fixed number of cycles twice in one process, first
untraced and then traced (:mod:`perfbench.meter`), checks that both passes
gave the same answers and oracle-call counts, and reports the per-layer
split from the traced pass.

Every answer the loop times is checked (:func:`check_answer`); a check that
fails or an operation that raises counts as a failed operation.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
import traceback
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterator

import numpy as np
import scipy
from scipy.stats import trim_mean

from perfbench import BLAS_THREAD_VARIABLES
from perfbench.meter import (
    LP_CALL_SITES,
    MeteredOracle,
    patched_call_sites,
    residual_fraction,
    span_attribute_totals,
    span_totals,
)
from perfbench.speed import REFERENCE_S, Speedometer
from perfbench.workloads import (
    QueryBatch,
    QueryPools,
    Workload,
    make_delta,
    query_batches,
    query_pools,
)
from repro.core.engine import create_engine
from repro.core.result import SuggestionResult
from repro.fairness.oracle import FairnessOracle
from repro.obs.trace import TraceRecorder, activated
from repro.ranking.scoring import LinearScoringFunction

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "SetupError",
    "RunResult",
    "fingerprint",
    "run_untraced",
    "run_traced",
]

#: End-to-end metrics of ``--trace 0``: every workload reports each of them.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "preprocess_s": "s",
    "suggest_mean_ms": "ms",
    "suggest_many_mean_ms": "ms",
    "cycle_mean_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of ``--trace 1``; a layer a workload never enters reads 0.
PER_LAYER: dict[str, str] = {
    "two_dim.exchange_build_s": "s",
    "two_dim.sweep_s": "s",
    "two_dim.interval_build_s": "s",
    "two_dim.unspanned_s": "s",
    "two_dim.exchanges": "count",
    "two_dim.sectors": "count",
    "two_dim.oracle_calls": "count",
    "two_dim.query_many_s": "s",
    "fairness.calls": "count",
    "fairness.swaps": "count",
    "fairness.batch_rows": "count",
    "fairness.busy_s": "s",
    "dominance.pair_chunk_s": "s",
    "dual.hyperplane_chunk_s": "s",
    "dual.hyperplanes": "count",
    "cellplane.assign_s": "s",
    "approx.mark_cells_s": "s",
    "approx.cell_coloring_s": "s",
    "approx.mark_oracle_calls": "count",
    "approx.marked_cells": "count",
    "lp.solves": "count",
    "lp.busy_s": "s",
    "lp.feasible_ratio": "ratio",
    "multi_dim.satregions_s": "s",
    "multi_dim.regions": "count",
    "multi_dim.minimize_calls": "count",
    "multi_dim.minimize_s": "s",
    "partition.locate_s": "s",
    "scoring.order_many_s": "s",
    "maintenance.apply_delta_s": "s",
    "maintenance.incremental": "count",
    "maintenance.rebuild": "count",
    "maintenance.fresh_exchanges": "count",
    "maintenance.retained_exchanges": "count",
    "trace.residual_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.dropped_spans": "count",
}

#: Singles per cycle whose answers are also re-checked against the raw
#: oracle (each check orders the whole dataset, so it is sampled).
ORACLE_CHECKS_PER_CYCLE = 4

#: Timed set-ups per round; each round keeps the engine of its last one.
SETUPS_PER_ROUND = 8

#: Untimed cycles of the warm-up that precedes the timed rounds.
WARMUP_CYCLES = 3

#: Seconds of closed loop between two readings of the machine's speed.
WINDOW_S = 0.5

#: Share of the samples cut from each end before a latency is averaged.
TRIM = 0.05

#: A run stops at this many seconds (or three times its length, if longer)
#: even when its loop is still below its sample floors.
HARD_LIMIT_S = 60.0

#: Queries compared between the maintained engine and its rebuilt twin.
EQUIVALENCE_QUERIES = 256

_clock = time.perf_counter


class SetupError(Exception):
    """The workload cannot run as configured; no operation was measured."""


@dataclass
class Tally:
    """Operations attempted and failed, with the first few problems."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


@dataclass
class Loop:
    """What one closed loop measured."""

    single_ms: list[float] = field(default_factory=list)
    cycle_ms: list[float] = field(default_factory=list)
    delta_ms: list[float] = field(default_factory=list)
    batch_rows: int = 0
    batch_ms: list[float] = field(default_factory=list)
    reports: list[Any] = field(default_factory=list)
    #: Answer fingerprints, kept only when two passes are compared.
    fingerprints: list[tuple] | None = None


@dataclass
class RunResult:
    """Everything one run reports."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    extra: dict[str, float]
    stamp: dict[str, Any]
    problems: list[str]


def fingerprint(result: SuggestionResult) -> tuple:
    """Bit-exact identity of an answer: verdict, suggested weights and distance."""
    return (
        bool(result.satisfactory),
        tuple(float(weight).hex() for weight in result.function.weights),
        float(result.angular_distance).hex(),
    )


def check_answer(
    result: SuggestionResult,
    function: LinearScoringFunction,
    expected: bool | None,
    oracle: FairnessOracle,
    engine: Any,
    full: bool,
) -> str | None:
    """What is wrong with one answer, or ``None``.

    Every answer must come back as itself at distance 0 when the engine calls
    it satisfactory, and its verdict must match ``expected`` when that is
    known.  With ``full``, the raw oracle also re-judges the query (when
    ``expected`` is unknown) and any suggestion made for an unsatisfactory
    query.
    """
    dataset = engine.dataset
    if expected is None and full:
        expected = bool(oracle.evaluate_function(function, dataset))
    if expected is not None and bool(result.satisfactory) != expected:
        return f"verdict {result.satisfactory} differs from the raw oracle for {function.weights}"
    if result.satisfactory:
        if result.function.weights != function.weights or result.angular_distance != 0.0:
            return f"satisfactory query {function.weights} did not come back as itself"
    elif full and not oracle.evaluate_function(result.function, dataset):
        return f"suggestion {result.function.weights} for {function.weights} fails the raw oracle"
    return None


def _no_span(name: str) -> ContextManager:
    return nullcontext()


def _describe(error: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(error), error)).strip()


def _require_satisfiable(engine: Any) -> None:
    index = engine.index
    satisfiable = getattr(index, "has_satisfactory_region", None)
    if satisfiable is None:
        satisfiable = index.has_satisfactory_function
    if not satisfiable:
        raise SetupError(
            "the fairness constraint is unsatisfiable on the workload's dataset"
        )


def _warm(engine: Any) -> None:
    """Fill the serving caches users pay for once, not per query."""
    index = engine.index
    if hasattr(index, "interval_starts"):
        index.interval_starts
    if hasattr(index, "_assigned_stack"):
        index._assigned_stack()


def run_cycle(
    workload: Workload,
    engine: Any,
    oracle: FairnessOracle,
    batch: QueryBatch,
    loop: Loop,
    tally: Tally,
    op_span: Callable[[str], ContextManager] = _no_span,
    delta_rng: np.random.Generator | None = None,
) -> None:
    """One closed-loop cycle: an optional delta, a batch, then single queries."""
    cycle_s = 0.0
    if delta_rng is not None:
        delta = make_delta(delta_rng, engine.dataset, len(engine.journal))
        tally.attempted += 1
        try:
            with op_span("op.apply_delta"):
                start = _clock()
                report = engine.apply_delta(delta)
                elapsed = _clock() - start
        except Exception as error:  # a failed write is counted, the loop goes on
            tally.fail(f"apply_delta raised {_describe(error)}")
        else:
            loop.delta_ms.append(elapsed * 1e3)
            loop.reports.append(report)
            cycle_s += elapsed

    many: list[SuggestionResult] | None = None
    tally.attempted += 1
    try:
        with op_span("op.suggest_many"):
            start = _clock()
            many = engine.suggest_many(batch.matrix[: workload.batch_size])
            elapsed = _clock() - start
    except Exception as error:
        tally.fail(f"suggest_many raised {_describe(error)}")
    else:
        loop.batch_rows += len(many)
        loop.batch_ms.append(elapsed * 1e3)
        cycle_s += elapsed
        if loop.fingerprints is not None:
            loop.fingerprints.extend(fingerprint(result) for result in many)

    batch_agrees = True
    for row in range(workload.singles_per_cycle):
        function = batch.functions[row]
        tally.attempted += 1
        try:
            with op_span("op.suggest"):
                start = _clock()
                result = engine.suggest(function)
                elapsed = _clock() - start
        except Exception as error:
            tally.fail(f"suggest raised {_describe(error)}")
            continue
        loop.single_ms.append(elapsed * 1e3)
        cycle_s += elapsed
        identity = fingerprint(result)
        if loop.fingerprints is not None:
            loop.fingerprints.append(identity)
        expected = None if batch.expected is None else batch.expected[row]
        problem = check_answer(
            result, function, expected, oracle, engine, row < ORACLE_CHECKS_PER_CYCLE
        )
        if many is not None and row < len(many) and fingerprint(many[row]) != identity:
            batch_agrees = False
            problem = problem or f"suggest_many row {row} differs from suggest"
        if problem is not None:
            tally.fail(problem)
    if many is not None and not batch_agrees:
        tally.fail("suggest_many disagrees with the suggest loop")
    loop.cycle_ms.append(cycle_s * 1e3)


class Inputs:
    """The query stream of one run seed, and the workload's delta stream.

    The query stream runs on across rounds, so a run walks the served
    queries' permutations (:func:`~perfbench.workloads.query_batches`) from
    end to end and answers each of them about equally often.  The delta
    stream is pinned with the dataset: how the data evolves decides the work
    of every later write and read, so only the queries follow the run seed.
    Every round restarts the delta stream (:meth:`start_round`) on a fresh
    engine over the same base dataset, so every round replays the same
    deltas.
    """

    def __init__(self, workload: Workload, seed: int, dataset: Any, oracle: FairnessOracle):
        self.workload = workload
        self.pools = None
        if not workload.maintain:
            self.pools = query_pools(dataset, oracle, workload.data_seed)
            if not (len(self.pools.satisfactory) and len(self.pools.unsatisfactory)):
                raise SetupError(
                    "no satisfactory or no unsatisfactory query among the candidates"
                )
        self.batches: Iterator[QueryBatch] = query_batches(
            np.random.default_rng([seed, 0]),
            max(workload.batch_size, workload.singles_per_cycle),
            workload.d,
            self.pools,
            workload.served_per_verdict,
        )
        self.delta_rng: np.random.Generator | None = None

    def start_round(self) -> None:
        if self.workload.maintain:
            self.delta_rng = np.random.default_rng([self.workload.data_seed, 1])


def _closed_loop(
    workload: Workload,
    engine: Any,
    oracle: FairnessOracle,
    inputs: Inputs,
    loop: Loop,
    tally: Tally,
    done: Callable[[Loop, float], bool],
    op_span: Callable[[str], ContextManager] = _no_span,
) -> None:
    start = _clock()
    while not done(loop, _clock() - start):
        run_cycle(
            workload, engine, oracle, next(inputs.batches), loop, tally, op_span, inputs.delta_rng
        )


def _check_rebuild(
    workload: Workload, engine: Any, oracle: FairnessOracle, seed: int, tally: Tally
) -> None:
    """The maintained engine must match a fresh rebuild on its mutated dataset."""
    tally.attempted += 1
    try:
        twin = create_engine(engine.dataset, oracle, workload.config).preprocess()
        rng = np.random.default_rng([seed, 2])
        queries = rng.random((EQUIVALENCE_QUERIES, workload.d)) + 0.01
        ours = [fingerprint(result) for result in engine.suggest_many(queries)]
        theirs = [fingerprint(result) for result in twin.suggest_many(queries)]
    except Exception as error:
        tally.fail(f"rebuild comparison raised {_describe(error)}")
        return
    if ours != theirs:
        tally.fail("maintained engine answers differ from a fresh rebuild")
    elif engine.index.oracle_calls != twin.index.oracle_calls:
        tally.fail(
            f"maintained engine made {engine.index.oracle_calls} oracle calls, "
            f"a fresh rebuild {twin.index.oracle_calls}"
        )


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _trimmed_mean(values: list[float]) -> float:
    """Mean of the samples between the 5th and the 95th percentile.

    The latencies are a mixture: satisfactory queries return at once, the
    others run the search, so a median falls wherever the mixture puts it,
    on grid3d (46% satisfactory) right in the gap between the two modes,
    where it moved by up to 0.2 of itself between runs of the same code.  A mean
    moves with the mixture's proportions only in proportion, and trimming
    keeps one preempted sample from moving it.
    """
    return float(trim_mean(values, TRIM)) if values else 0.0


class Rescaled:
    """Wall-time series and their copies at reference speed (:mod:`perfbench.speed`)."""

    def __init__(self, raw: dict[str, list[float]], speed: Speedometer) -> None:
        self.raw = raw
        self.scaled: dict[str, list[float]] = {name: [] for name in raw}
        self.speed = speed
        self._marks = {name: 0 for name in raw}

    def close_block(self) -> None:
        """Rescale the samples added since the last block closed."""
        factor = self.speed.factor()
        for name, values in self.raw.items():
            self.scaled[name].extend(value * factor for value in values[self._marks[name]:])
            self._marks[name] = len(values)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment_stamp(seed: int) -> dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "seed": seed,
    }


def cost_stamp(engine: Any, lp_solves: int | None, pools: QueryPools | None) -> dict[str, Any]:
    """Counts that set the work of a run: a change here is a change of input."""
    index = engine.index
    return {
        "satisfactory_share": None if pools is None else pools.satisfactory_share,
        "n_items": engine.dataset.n_items,
        "exchanges": getattr(index, "n_exchanges", 0),
        "hyperplanes": getattr(index, "n_hyperplanes", 0),
        "regions": getattr(index, "n_regions", 0),
        "marked_cells": getattr(index, "n_marked_cells", 0),
        "preprocess_oracle_calls": index.oracle_calls,
        "preprocess_lp_solves": lp_solves,
    }


def _build(workload: Workload, wrap: Callable = lambda oracle: oracle):
    dataset = workload.make_dataset()
    oracle = workload.make_oracle(dataset)
    return oracle, create_engine(dataset, wrap(oracle), workload.config)


# --------------------------------------------------------------------------- #
# --trace 0: end-to-end metrics
# --------------------------------------------------------------------------- #
def run_untraced(workload: Workload, seed: int, seconds: float) -> RunResult:
    """Measure every end-to-end metric with tracing off.

    A warm-up (one untimed set-up, preprocess and a few cycles) first pays
    the process's one-time costs: lazy imports, first solver calls, caches.
    The rest of ``seconds`` is then split into ``workload.rounds`` rounds.
    Each round sets up ``SETUPS_PER_ROUND`` engines (keeping the last),
    preprocesses ``workload.preprocesses_per_round`` fresh engines and runs
    its share of the closed loop.

    The timed work is cut into blocks (the round's set-ups, each preprocess,
    ``WINDOW_S`` of the loop), and every wall time is rescaled to reference
    speed by the reference task timed around its block
    (:mod:`perfbench.speed`).  Set-up and preprocessing report the median of
    their rescaled samples over the whole run, the latencies their trimmed
    mean (:func:`_trimmed_mean`).  The wall-time medians and the reference
    times go to the record.
    """
    tally = Tally()
    rss_baseline_mb = _peak_rss_mb()
    setup_s: list[float] = []
    preprocess_s: list[float] = []
    loop = Loop()

    start_s = _clock()
    gc.collect()
    speed = Speedometer()
    oracle, engine = _build(workload)
    _, lp_solves = _timed_preprocess(engine)
    _require_satisfiable(engine)
    inputs = Inputs(workload, seed, engine.dataset, oracle)
    stamp = {
        "environment": environment_stamp(seed),
        "cost": cost_stamp(engine, lp_solves, inputs.pools),
        "reference_unit_s": REFERENCE_S,
    }
    inputs.start_round()
    if not workload.maintain:
        _warm(engine)
    _closed_loop(
        workload, engine, oracle, inputs, Loop(), tally,
        lambda loop, elapsed: len(loop.cycle_ms) >= WARMUP_CYCLES,
    )

    series = Rescaled(
        {
            "setup_s": setup_s,
            "preprocess_s": preprocess_s,
            "single_ms": loop.single_ms,
            "batch_ms": loop.batch_ms,
            "cycle_ms": loop.cycle_ms,
            "delta_ms": loop.delta_ms,
        },
        speed,
    )
    rounds = workload.rounds
    hard_limit = max(3.0 * seconds, HARD_LIMIT_S)
    for round_number in range(1, rounds + 1):
        speed.factor()  # the reference time just before the round's set-ups
        for _ in range(SETUPS_PER_ROUND):
            engine = None
            gc.collect()
            start = _clock()
            oracle, engine = _build(workload)
            setup_s.append(_clock() - start)
        series.close_block()
        for repeat in range(workload.preprocesses_per_round):
            if repeat:
                engine = create_engine(engine.dataset, oracle, workload.config)
            gc.collect()
            preprocess_s.append(_timed_preprocess(engine)[0])
            series.close_block()
        inputs.start_round()
        if not workload.maintain:
            _warm(engine)
        gc.collect()
        deadline = round_number * seconds / rounds
        share = round_number / rounds
        # Every round gets its own floor, so the rounds that ran long do not
        # leave the later ones a handful of samples.
        first_cycle, first_single = len(loop.cycle_ms), len(loop.single_ms)

        def done(loop: Loop) -> bool:
            run_elapsed = _clock() - start_s
            if run_elapsed > hard_limit * share:
                return True
            return (
                run_elapsed >= deadline
                and (len(loop.cycle_ms) - first_cycle) * rounds >= workload.min_cycles
                and (len(loop.single_ms) - first_single) * rounds >= workload.min_singles
            )

        speed.factor()  # the reference time just before the loop
        while not done(loop):
            _closed_loop(
                workload, engine, oracle, inputs, loop, tally,
                lambda loop, elapsed: elapsed >= WINDOW_S or done(loop),
            )
            series.close_block()
        if workload.maintain:
            _check_rebuild(workload, engine, oracle, seed, tally)

    scaled = series.scaled
    metrics = {
        "setup_s": statistics.median(scaled["setup_s"]),
        "preprocess_s": statistics.median(scaled["preprocess_s"]),
        "suggest_mean_ms": _trimmed_mean(scaled["single_ms"]),
        "suggest_many_mean_ms": _trimmed_mean(scaled["batch_ms"]),
        "cycle_mean_ms": _trimmed_mean(scaled["cycle_ms"]),
        # Memory the workload adds on top of the interpreter and the imports.
        "peak_rss_mb": _peak_rss_mb() - rss_baseline_mb,
    }
    extra = {
        "reference_p50_s": statistics.median(speed.samples),
        "preprocess_wall_p50_s": _percentile(preprocess_s, 50),
        "suggest_wall_p50_ms": _percentile(loop.single_ms, 50),
        "suggest_p50_ms": _percentile(scaled["single_ms"], 50),
        "suggest_p99_ms": _percentile(scaled["single_ms"], 99),
        "suggest_many_qps": 1e3 * loop.batch_rows / sum(scaled["batch_ms"])
        if loop.batch_ms
        else 0.0,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "rss_baseline_mb": rss_baseline_mb,
    }
    if workload.maintain:
        extra["apply_delta_p50_ms"] = _percentile(scaled["delta_ms"], 50)
        extra["apply_delta_p90_ms"] = _percentile(scaled["delta_ms"], 90)
    stamp["raw"] = {
        "reference_s": speed.samples,
        "setup_s": setup_s,
        "preprocess_s": preprocess_s,
        "single_ms": [round(value, 6) for value in loop.single_ms],
        "batch_ms": [round(value, 4) for value in loop.batch_ms],
        "cycle_ms": [round(value, 4) for value in loop.cycle_ms],
        "delta_ms": [round(value, 4) for value in loop.delta_ms],
    }
    stamp["samples"] = {
        "rounds": rounds,
        "suggest": len(loop.single_ms),
        "suggest_many_batches": len(loop.batch_ms),
        "suggest_many_rows": loop.batch_rows,
        "cycles": len(loop.cycle_ms),
        "apply_delta": len(loop.delta_ms),
    }
    return RunResult(
        correct=tally.failed == 0,
        attempted=tally.attempted,
        failed=tally.failed,
        metrics=metrics,
        units=dict(END_TO_END),
        extra=extra,
        stamp=stamp,
        problems=tally.problems,
    )


def _timed_preprocess(engine: Any) -> tuple[float, int]:
    """Seconds of one ``preprocess`` and the LP solves it made (for the cost stamp)."""
    with patched_call_sites(LP_CALL_SITES) as meters:
        start = _clock()
        engine.preprocess()
        seconds = _clock() - start
    return seconds, sum(meter.calls for meter in meters.values())


# --------------------------------------------------------------------------- #
# --trace 1: per-layer metrics
# --------------------------------------------------------------------------- #
#: Span buffer of the traced pass; large enough that no span of a run is dropped.
MAX_SPANS = 1_000_000

#: The stage spans ``TwoDRaySweep.run`` opens directly inside a preprocess.
TWO_D_STAGES = ("preprocess.exchange_build", "preprocess.sweep", "preprocess.interval_build")


@dataclass
class Pass:
    """One fixed-length pass and what the two-pass comparison needs from it."""

    engine: Any
    loop: Loop
    wall_s: float
    preprocess_oracle_calls: int
    final_oracle_calls: int
    metered_preprocess_calls: int = 0
    preprocess_lp_solves: int = 0
    recorder: TraceRecorder | None = None
    meters: dict = field(default_factory=dict)
    pools: QueryPools | None = None


def _fixed_pass(workload: Workload, seed: int, tally: Tally, traced: bool) -> Pass:
    """Preprocess once and run ``workload.traced_cycles`` cycles, optionally traced."""
    recorder = TraceRecorder(max_spans=MAX_SPANS) if traced else None
    op_span = recorder.span if recorder is not None else _no_span
    oracle, engine = _build(workload, MeteredOracle if traced else (lambda inner: inner))
    inputs = Inputs(workload, seed, engine.dataset, oracle)
    inputs.start_round()
    loop = Loop(fingerprints=[])
    gc.collect()
    with ExitStack() as stack:
        meters: dict = {}
        if recorder is not None:
            stack.enter_context(activated(recorder))
            meters = stack.enter_context(patched_call_sites(recorder=recorder))
        start = _clock()
        with op_span("op.preprocess"):
            engine.preprocess()
        preprocess_calls = engine.index.oracle_calls
        metered_calls = engine.oracle.calls if traced else 0
        lp_solves = sum(
            meter.calls for name, meter in meters.items() if name.startswith("lp.")
        )
        _require_satisfiable(engine)
        if not workload.maintain:
            _warm(engine)
        _closed_loop(
            workload,
            engine,
            oracle,
            inputs,
            loop,
            tally,
            lambda loop, elapsed: len(loop.cycle_ms) >= workload.traced_cycles,
            op_span,
        )
        wall_s = _clock() - start
    if workload.maintain:
        _check_rebuild(workload, engine, oracle, seed, tally)
    return Pass(
        engine=engine,
        loop=loop,
        wall_s=wall_s,
        preprocess_oracle_calls=preprocess_calls,
        final_oracle_calls=engine.index.oracle_calls,
        metered_preprocess_calls=metered_calls,
        preprocess_lp_solves=lp_solves,
        recorder=recorder,
        meters=meters,
        pools=inputs.pools,
    )


def _compare_passes(workload: Workload, plain: Pass, traced: Pass, tally: Tally) -> None:
    """The traced pass must be the same program as the untraced one."""
    spans = traced.recorder.spans
    checks = [
        (
            plain.loop.fingerprints == traced.loop.fingerprints,
            "traced answers differ from the untraced pass",
        ),
        (
            (plain.preprocess_oracle_calls, plain.final_oracle_calls)
            == (traced.preprocess_oracle_calls, traced.final_oracle_calls),
            "traced oracle-call counts differ from the untraced pass",
        ),
        (
            traced.metered_preprocess_calls == traced.preprocess_oracle_calls,
            f"the metered oracle saw {traced.metered_preprocess_calls} preprocessing "
            f"calls, the index counted {traced.preprocess_oracle_calls}",
        ),
    ]
    if workload.d == 2:
        sweeps = [span for span in spans if span.name == "preprocess.sweep"]
        checks.append(
            (
                bool(sweeps)
                and all(dict(span.attributes).get("incremental") is True for span in sweeps),
                "the traced sweep did not run the incremental oracle protocol",
            )
        )
    for ok, problem in checks:
        tally.attempted += 1
        if not ok:
            tally.fail(problem)


def _layer_metrics(workload: Workload, plain: Pass, traced: Pass) -> dict[str, float]:
    recorder = traced.recorder
    spans = recorder.spans
    totals = span_totals(spans)
    meters = traced.meters
    engine = traced.engine
    index = engine.index
    oracle = engine.oracle
    lp = [meters["lp.feasible_point"], meters["lp.chebyshev_center"]]
    lp_solves = sum(meter.calls for meter in lp)
    preprocesses = {span.span_id: span for span in spans if span.name == "op.preprocess"}
    preprocess_s = sum(span.duration for span in preprocesses.values())
    two_d = engine.name == "2d"
    staged_s = sum(
        span.duration
        for span in spans
        if span.parent_id in preprocesses and span.name in TWO_D_STAGES
    )
    sweeps = [span for span in spans if span.name == "preprocess.sweep"]
    reports = traced.loop.reports
    return {
        "two_dim.exchange_build_s": totals.get("preprocess.exchange_build", 0.0),
        "two_dim.sweep_s": totals.get("preprocess.sweep", 0.0),
        "two_dim.interval_build_s": totals.get("preprocess.interval_build", 0.0),
        "two_dim.unspanned_s": preprocess_s - staged_s if two_d else 0.0,
        "two_dim.exchanges": float(getattr(index, "n_exchanges", 0)) if two_d else 0.0,
        "two_dim.sectors": float(dict(sweeps[-1].attributes)["n_sectors"]) if sweeps else 0.0,
        "two_dim.oracle_calls": float(index.oracle_calls) if two_d else 0.0,
        "two_dim.query_many_s": totals.get("two_dim.query_many", 0.0),
        "fairness.calls": float(oracle.calls),
        "fairness.swaps": float(oracle.swaps),
        "fairness.batch_rows": float(oracle.batch_rows),
        "fairness.busy_s": oracle.busy_s,
        "dominance.pair_chunk_s": totals.get("preprocess.pair_chunk", 0.0),
        "dual.hyperplane_chunk_s": totals.get("preprocess.hyperplane_chunk", 0.0),
        "dual.hyperplanes": span_attribute_totals(spans, "preprocess.hyperplane_chunk", "n_pairs"),
        "cellplane.assign_s": totals.get("preprocess.cell_plane_assignment", 0.0),
        "approx.mark_cells_s": totals.get("preprocess.mark_cells", 0.0),
        "approx.cell_coloring_s": totals.get("preprocess.cell_coloring", 0.0),
        "approx.mark_oracle_calls": span_attribute_totals(
            spans, "preprocess.mark_cells", "oracle_calls"
        ),
        "approx.marked_cells": float(getattr(index, "n_marked_cells", 0)),
        "lp.solves": float(lp_solves),
        "lp.busy_s": sum(meter.busy_s for meter in lp),
        "lp.feasible_ratio": sum(meter.useful for meter in lp) / lp_solves if lp_solves else 0.0,
        "multi_dim.satregions_s": preprocess_s if engine.name == "exact" else 0.0,
        "multi_dim.regions": float(getattr(index, "n_regions", 0)),
        "multi_dim.minimize_calls": float(meters["multi_dim.minimize"].calls),
        "multi_dim.minimize_s": meters["multi_dim.minimize"].busy_s,
        "partition.locate_s": totals.get("partition.locate_cells", 0.0),
        "scoring.order_many_s": totals.get("scoring.order_many", 0.0),
        "maintenance.apply_delta_s": totals.get("maintenance.apply_delta", 0.0),
        "maintenance.incremental": float(
            sum(report.strategy == "incremental" for report in reports)
        ),
        "maintenance.rebuild": float(sum(report.strategy == "rebuild" for report in reports)),
        "maintenance.fresh_exchanges": float(
            sum(report.details.get("n_fresh_exchanges", 0) for report in reports)
        ),
        "maintenance.retained_exchanges": float(
            sum(report.details.get("n_retained_exchanges", 0) for report in reports)
        ),
        "trace.residual_frac": residual_fraction(spans),
        "trace.overhead_frac": traced.wall_s / plain.wall_s - 1.0,
        "trace.dropped_spans": float(recorder.n_dropped),
    }


def run_traced(workload: Workload, seed: int, trace_path: Path | None = None) -> RunResult:
    """Run the untraced and the traced pass and report the per-layer split."""
    tally = Tally()
    plain = _fixed_pass(workload, seed, tally, traced=False)
    plain.engine = None  # free the first index before building the second
    traced = _fixed_pass(workload, seed, tally, traced=True)
    _compare_passes(workload, plain, traced, tally)
    if trace_path is not None:
        traced.recorder.save(trace_path)
    metrics = _layer_metrics(workload, plain, traced)
    stamp = {
        "environment": environment_stamp(seed),
        "cost": cost_stamp(traced.engine, traced.preprocess_lp_solves, traced.pools),
        "samples": {
            "cycles": len(traced.loop.cycle_ms),
            "suggest": len(traced.loop.single_ms),
            "apply_delta": len(traced.loop.delta_ms),
            "spans": len(traced.recorder.spans),
        },
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
    }
    return RunResult(
        correct=tally.failed == 0,
        attempted=tally.attempted,
        failed=tally.failed,
        metrics=metrics,
        units=dict(PER_LAYER),
        extra={"failed_frac": tally.failed / max(tally.attempted, 1)},
        stamp=stamp,
        problems=tally.problems,
    )
