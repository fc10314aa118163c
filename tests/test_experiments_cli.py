"""Tests for the experiment harness/workloads and the command-line interface.

Workload functions are exercised at miniature scale: the goal here is that the
code that regenerates every paper figure runs end to end and produces sane,
well-shaped output (the benchmarks run them at larger scale).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments.harness import Series, SweepResult
from repro.experiments.reporting import (
    format_histogram,
    format_series,
    format_sweep,
    format_table,
)
from repro.experiments.workloads import (
    default_compas_dataset,
    default_compas_oracle,
    experiment_ablation_convex_layers,
    experiment_fig16_validation,
    experiment_fig17_2d_preprocessing,
    experiment_fig18_arrangement_tree,
    experiment_fig19_region_growth,
    experiment_fig20_hyperplanes,
    experiment_fig21_cell_hyperplanes,
    experiment_fig22_preprocessing_vs_n,
    experiment_fig23_preprocessing_vs_d,
    experiment_online_2d,
    experiment_online_md,
    experiment_sampling_dot,
    experiment_sec62_layouts,
)


class TestHarness:
    def test_series_and_sweep(self):
        series = Series("s", "x", "y")
        series.add(1, 2)
        series.add(3, 4)
        assert len(series) == 2
        assert series.rows() == [(1.0, 2.0), (3.0, 4.0)]

    def test_reporting_formats(self):
        table = format_table(["a", "b"], [[1, 2.5], [3, 0.0001]])
        assert "a" in table and "b" in table
        series = Series("s", "x", "y")
        series.add(1, 2)
        assert "x" in format_series(series)
        sweep = SweepResult(parameter="n")
        sweep.series_named("y").add(1, 2)
        assert "n" in format_sweep(sweep)
        assert "(empty sweep)" in format_sweep(SweepResult(parameter="n"))
        assert "bucket" in format_histogram({1: 2}, title="t")


class TestDefaults:
    def test_default_dataset_and_oracle(self):
        dataset = default_compas_dataset(n=50, d=3)
        oracle = default_compas_oracle(dataset)
        assert dataset.n_attributes == 3
        assert oracle.max_fraction is not None


@pytest.mark.slow
class TestWorkloadsSmallScale:
    def test_fig16_validation(self):
        result = experiment_fig16_validation(n_items=40, d=3, n_queries=10, n_cells=16)
        assert result.n_queries == 10
        assert result.n_already_satisfactory + len(result.distances) == 10
        counts = result.cumulative_counts()
        assert all(count <= len(result.distances) for count in counts.values())

    def test_sec62_layouts(self):
        layouts = experiment_sec62_layouts(n_items=60, n_queries=5)
        assert len(layouts) == 3
        for layout in layouts:
            assert layout.n_regions >= 0
            # The repair distance is NaN when a configuration is unsatisfiable
            # at this miniature scale; otherwise it must be non-negative.
            if not np.isnan(layout.max_repair_distance):
                assert layout.max_repair_distance >= 0.0

    def test_online_2d(self):
        timing = experiment_online_2d(n_items=200, n_queries=5)
        assert timing.mean_query_seconds > 0.0
        assert timing.mean_ordering_seconds > 0.0

    def test_online_md(self):
        results = experiment_online_md(
            d_values=(3,), n_items=30, n_queries=5, n_cells=16, max_hyperplanes=20
        )
        assert len(results) == 1
        assert results[0].speedup > 0.0

    def test_fig17(self):
        sweep = experiment_fig17_2d_preprocessing(n_values=(30, 60))
        assert len(sweep.series["ordering_exchanges"]) == 2
        assert sweep.series["ordering_exchanges"].ys[1] >= sweep.series["ordering_exchanges"].ys[0]

    def test_fig18(self):
        sweep = experiment_fig18_arrangement_tree(n_items=15, hyperplane_counts=(5, 10))
        assert len(sweep.series["baseline_seconds"]) == 2
        assert len(sweep.series["arrangement_tree_seconds"]) == 2

    def test_fig19(self):
        sweep = experiment_fig19_region_growth(n_items=15, checkpoints=(5, 10))
        regions = sweep.series["regions"].ys
        assert regions == sorted(regions)

    def test_fig20(self):
        sweep = experiment_fig20_hyperplanes(n_values=(20, 40))
        counts = sweep.series["hyperplanes"].ys
        assert counts[1] >= counts[0]

    def test_fig21(self):
        counts = experiment_fig21_cell_hyperplanes(
            n_items=20, d=3, n_cells=25, max_hyperplanes=40
        )
        assert counts.shape == (25,)
        assert np.all(np.diff(counts) >= 0)

    def test_fig22(self):
        sweep = experiment_fig22_preprocessing_vs_n(
            n_values=(15, 25), d=3, n_cells=16, max_hyperplanes=20
        )
        totals = sweep.series["total_seconds"].ys
        marks = sweep.series["mark_cell_seconds"].ys
        assert all(total >= mark for total, mark in zip(totals, marks))
        assert all(mark > 0.0 for mark in marks)
        assert all(seconds > 0.0 for seconds in sweep.series["hyperplane_seconds"].ys)

    def test_fig23(self):
        sweep = experiment_fig23_preprocessing_vs_d(
            d_values=(3,), n_items=20, n_cells=16, max_hyperplanes=15
        )
        assert len(sweep.series["total_seconds"]) == 1

    def test_sampling(self):
        result = experiment_sampling_dot(
            full_size=2000, sample_size=50, n_cells=16, max_hyperplanes=25
        )
        assert result.n_functions_checked >= 0
        assert result.n_satisfactory_on_full <= max(result.n_functions_checked, 1)

    def test_ablation_layers(self):
        result = experiment_ablation_convex_layers(n_items=25, d=3, k=8)
        assert result["convex_layers_hyperplanes"] <= result["full_hyperplanes"]


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(
            ["suggest", "--attribute", "race", "--group", "AA", "--weights", "0.5,0.5"]
        )
        assert args.command == "suggest"

    def test_suggest_requires_a_bound(self, capsys):
        code = main(
            [
                "suggest",
                "--dataset",
                "compas",
                "--n",
                "30",
                "--d",
                "2",
                "--attribute",
                "race",
                "--group",
                "African-American",
                "--weights",
                "0.5,0.5",
            ]
        )
        assert code == 2

    def test_suggest_2d_runs(self, capsys):
        code = main(
            [
                "suggest",
                "--dataset",
                "compas",
                "--n",
                "60",
                "--d",
                "2",
                "--attribute",
                "race",
                "--group",
                "African-American",
                "--k",
                "0.3",
                "--max-share",
                "0.6",
                "--weights",
                "0.9,0.1",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "constraint" in output

    @pytest.mark.slow
    def test_suggest_3d_runs(self, capsys):
        code = main(
            [
                "suggest",
                "--dataset",
                "compas",
                "--n",
                "25",
                "--d",
                "3",
                "--attribute",
                "race",
                "--group",
                "African-American",
                "--k",
                "8",
                "--max-share",
                "0.6",
                "--n-cells",
                "16",
                "--max-hyperplanes",
                "20",
                "--weights",
                "0.6,0.2,0.2",
            ]
        )
        assert code == 0

    def test_suggest_from_csv(self, tmp_path, capsys):
        from repro.data.synthetic import make_compas_like

        dataset = make_compas_like(n=50, seed=0).project(
            ["c_days_from_compas", "juv_other_count"]
        )
        path = tmp_path / "data.csv"
        dataset.to_csv(str(path))
        code = main(
            [
                "suggest",
                "--csv",
                str(path),
                "--attribute",
                "race",
                "--group",
                "African-American",
                "--k",
                "0.3",
                "--max-share",
                "0.6",
                "--weights",
                "0.5,0.5",
            ]
        )
        assert code == 0
