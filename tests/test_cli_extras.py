"""Tests for the ``audit``, ``suggest``, ``maintain`` and ``figures`` CLI subcommands."""

from __future__ import annotations

import pytest

from differential import assert_engines_equivalent, make_weight_grid
from repro.cli import build_parser, main
from repro.core.engine import TwoDConfig, create_engine
from repro.core.maintenance import DatasetDelta
from repro.data.synthetic import COMPAS_SCORING_ATTRIBUTES, make_compas_like
from repro.fairness.proportional import ProportionalOracle
from repro.io.index_store import load_engine


class TestParser:
    def test_audit_subcommand_is_registered(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "audit",
                "--attribute",
                "race",
                "--group",
                "African-American",
                "--weights",
                "0.5,0.3,0.2",
            ]
        )
        assert args.command == "audit"
        assert args.k == pytest.approx(0.3)

    def test_figures_subcommand_is_registered(self):
        parser = build_parser()
        args = parser.parse_args(["figures", "--output", "out", "--names", "fig19_region_growth"])
        assert args.command == "figures"
        assert args.output == "out"

    def test_unknown_command_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])
        capsys.readouterr()


class TestAuditCommand:
    def test_audit_prints_report_for_synthetic_compas(self, capsys):
        exit_code = main(
            [
                "audit",
                "--dataset",
                "compas",
                "--n",
                "120",
                "--d",
                "3",
                "--attribute",
                "race",
                "--group",
                "African-American",
                "--k",
                "0.3",
                "--weights",
                "0.5,0.3,0.2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "fairness audit" in captured.out
        assert "rND" in captured.out

    def test_audit_with_csv_dataset(self, tmp_path, capsys, small_compas_3d):
        path = tmp_path / "data.csv"
        small_compas_3d.to_csv(str(path))
        exit_code = main(
            [
                "audit",
                "--csv",
                str(path),
                "--attribute",
                "race",
                "--group",
                "African-American",
                "--k",
                "10",
                "--weights",
                "0.4,0.3,0.3",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "protected in top-k" in captured.out


class TestSuggestExplain:
    def test_suggest_with_explain_flag_prints_explanation(self, capsys):
        exit_code = main(
            [
                "suggest",
                "--dataset",
                "compas",
                "--n",
                "80",
                "--d",
                "3",
                "--attribute",
                "race",
                "--group",
                "African-American",
                "--k",
                "0.3",
                "--max-share",
                "0.6",
                "--n-cells",
                "27",
                "--max-hyperplanes",
                "40",
                "--weights",
                "0.5,0.3,0.2",
                "--explain",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        # Either the query was already fair (short message) or a full repair
        # explanation is printed.
        assert (
            "already satisfy" in captured.out
            or "top-" in captured.out
            and "weight changes" in captured.out
        )


class TestSuggestBatchAndPersistence:
    _BASE = [
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
    ]

    def test_requires_weights_or_weights_file(self, capsys):
        code = main(self._BASE)
        captured = capsys.readouterr()
        assert code == 2
        assert "--weights" in captured.err

    def test_weights_file_answers_every_line(self, tmp_path, capsys):
        weights_file = tmp_path / "queries.txt"
        weights_file.write_text("0.9,0.1\n0.5,0.5\n\n0.1,0.9\n", encoding="utf-8")
        code = main(self._BASE + ["--weights-file", str(weights_file)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.count("->") == 3

    def test_empty_weights_file_is_an_error(self, tmp_path, capsys):
        weights_file = tmp_path / "queries.txt"
        weights_file.write_text("\n", encoding="utf-8")
        code = main(self._BASE + ["--weights-file", str(weights_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert "no weight vectors" in captured.err

    def test_save_then_load_index_round_trip(self, tmp_path, capsys):
        index_path = tmp_path / "engine.json"
        code = main(self._BASE + ["--weights", "0.9,0.1", "--save-index", str(index_path)])
        saved_out = capsys.readouterr().out
        assert code == 0
        assert index_path.exists()
        assert "engine saved" in saved_out
        # Serve the same query from the persisted engine, with no dataset
        # flags needed for preprocessing (the engine file carries it).
        code = main(
            [
                "suggest",
                "--attribute",
                "race",
                "--group",
                "African-American",
                "--k",
                "0.3",
                "--max-share",
                "0.6",
                "--load-index",
                str(index_path),
                "--weights",
                "0.9,0.1",
            ]
        )
        loaded_out = capsys.readouterr().out
        assert code == 0
        # Identical answer text before and after the round trip.
        assert loaded_out.strip() in saved_out


class TestMaintainCommand:
    """``suggest --save-index`` then ``maintain --load-index``, end to end."""

    _CONSTRAINT = [
        "--attribute",
        "race",
        "--group",
        "African-American",
        "--k",
        "0.3",
        "--max-share",
        "0.6",
    ]
    _TYPES = "race=African-American;sex=female;age_binary=over_35;age_bucketized=over_40"

    def _saved_engine(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        code = main(
            TestSuggestBatchAndPersistence._BASE
            + ["--weights", "0.9,0.1", "--save-index", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        return path

    def _maintain(self, source, *delta_args):
        return main(["maintain", "--load-index", str(source), *self._CONSTRAINT, *delta_args])

    def test_maintained_engine_matches_a_fresh_rebuild(self, tmp_path, capsys):
        source, target = self._saved_engine(tmp_path, capsys), tmp_path / "b.json"
        code = self._maintain(
            source,
            "--insert",
            f"0.5,0.3;{self._TYPES}",
            "--update",
            "7:0.2,0.9",
            "--delete",
            "3",
            "--save-index",
            str(target),
        )
        out = capsys.readouterr().out
        assert code == 0
        # A loaded engine holds no exchange cache, so the delta rebuilds.
        assert "strategy: rebuild" in out and "engine saved" in out

        oracle = ProportionalOracle("race", "African-American", k=0.3, max_fraction=0.6)
        base = make_compas_like(n=60, seed=0).project(list(COMPAS_SCORING_ATTRIBUTES[:2]))
        delta = DatasetDelta(
            inserts=((0.5, 0.3),),
            insert_types={
                "race": ("African-American",),
                "sex": ("female",),
                "age_binary": ("over_35",),
                "age_bucketized": ("over_40",),
            },
            deletes=(3,),
            updates=((7, (0.2, 0.9)),),
        )
        fresh = create_engine(delta.apply(base), oracle, TwoDConfig()).preprocess()
        assert_engines_equivalent(
            load_engine(target, oracle), fresh, make_weight_grid(16, 2, seed=1)
        )

    def test_malformed_update_exits_2(self, tmp_path, capsys):
        code = self._maintain(self._saved_engine(tmp_path, capsys), "--update", "7-0.2,0.9")
        assert code == 2
        assert "malformed delta argument" in capsys.readouterr().err

    def test_journaled_flag_is_gone(self, tmp_path, capsys):
        source = self._saved_engine(tmp_path, capsys)
        with pytest.raises(SystemExit) as exit_info:
            self._maintain(source, "--delete", "3", "--journaled")
        assert exit_info.value.code == 2
        assert "--journaled" in capsys.readouterr().err


@pytest.mark.slow
class TestFiguresCommand:
    def test_figures_writes_requested_artifacts(self, tmp_path, capsys):
        exit_code = main(
            ["figures", "--output", str(tmp_path), "--names", "fig19_region_growth"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "fig19_region_growth" in captured.out
        assert (tmp_path / "fig19_region_growth.csv").exists()
        assert (tmp_path / "fig19_region_growth.txt").exists()
