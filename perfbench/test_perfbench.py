"""Tests of the benchmark itself: tiny workloads end to end, and its gates.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.harness import END_TO_END, PER_LAYER, run_traced, run_untraced
from perfbench.workloads import WORKLOADS
from repro.core.engine import ApproxConfig, ExactConfig
from repro.core.result import SuggestionResult
from repro.core.two_dim import TwoDIndex

ROOT = Path(__file__).resolve().parent.parent

#: Sizes that run every workload's full code path in a few seconds.
TINY = {
    "grid3d": dict(n=60, config=ApproxConfig(n_cells=16, max_hyperplanes=8), data_seed=3),
    "exact3d": dict(n=40, config=ExactConfig(max_hyperplanes=8), data_seed=1),
    # A dataset on which the delta stream leaves unsatisfactory queries, so a
    # perturbed suggestion has something to perturb.
    "maintain2d": dict(n=60, data_seed=4),
}


def tiny(name: str):
    return dataclasses.replace(
        WORKLOADS[name],
        batch_size=min(WORKLOADS[name].batch_size, 16),
        singles_per_cycle=min(WORKLOADS[name].singles_per_cycle, 8),
        rounds=2,
        min_singles=8,
        min_cycles=3,
        traced_cycles=2,
        **TINY[name],
    )


def test_benchmark_json_names_the_metrics_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)
    assert {metric["name"]: metric["unit"] for metric in spec["end_to_end"]} == END_TO_END
    assert {metric["name"]: metric["unit"] for metric in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_runs_end_to_end_with_every_gate_passing(name):
    untraced = run_untraced(tiny(name), seed=1, seconds=0.0)
    assert untraced.problems == []
    assert untraced.correct and untraced.failed == 0 and untraced.attempted > 0
    assert set(untraced.metrics) == set(END_TO_END)
    # The peak-memory figure is a high-water mark over the whole process, which
    # earlier tests in this process may already have raised.
    timings = {name: value for name, value in untraced.metrics.items() if name != "peak_rss_mb"}
    assert all(value > 0 for value in timings.values())
    assert untraced.metrics["peak_rss_mb"] >= 0

    traced = run_traced(tiny(name), seed=1)
    assert traced.problems == []
    assert traced.correct and traced.failed == 0
    assert set(traced.metrics) == set(PER_LAYER)
    assert traced.metrics["trace.dropped_spans"] == 0
    assert 0.0 <= traced.metrics["trace.residual_frac"] <= 1.0


def test_a_perturbed_answer_is_counted_as_failed(monkeypatch):
    honest_query = TwoDIndex.query

    def perturbed_query(self, function):
        result = honest_query(self, function)
        if result.satisfactory:
            return result
        return SuggestionResult(
            result.query, False, result.function, result.angular_distance * 1.5
        )

    monkeypatch.setattr(TwoDIndex, "query", perturbed_query)
    result = run_untraced(tiny("maintain2d"), seed=1, seconds=0.0)
    assert not result.correct
    assert result.extra["failed_frac"] > 0
    assert any("differs from suggest" in problem for problem in result.problems)


def test_run_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out")
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
