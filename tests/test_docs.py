"""Documentation health checks (tier-2, but cheap enough to ride in tier-1).

Three enforcement points:

* ``scripts/check_docs.py`` — every code reference in ``README.md`` and
  ``docs/*.md`` (module paths, ``BENCH_*`` trajectory names, repo paths,
  relative links) and every ``*.md`` name in the code must still resolve;
* a ``--doctest-modules`` pytest run over each of ``scripts/check_all.py``'s
  ``DOCTEST_MODULES`` — the ``>>>`` examples in their public docstrings
  must stay runnable;
* the README quickstart, its command lines and every ``examples/`` script
  run to completion within a time limit.
"""

from __future__ import annotations

import importlib.util
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every ``examples/`` script, so a new one is run without editing a list.
EXAMPLES = sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py"))


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckDocs:
    def test_repository_docs_have_no_stale_references(self):
        check_docs = _load_script("check_docs")
        assert check_docs.collect_errors() == []

    def test_detects_stale_references(self, tmp_path):
        check_docs = _load_script("check_docs")
        stale = tmp_path / "stale.md"
        stale.write_text(
            "Uses `repro.geometry.warp_drive` and `BENCH_nonexistent.json`, "
            "regenerated by `bench_nonexistent.py`; see also "
            "src/repro/missing_module.py and [gone](missing.md).\n",
            encoding="utf-8",
        )
        errors = check_docs.check_file(stale)
        assert len(errors) == 5
        assert any("repro.geometry.warp_drive" in error for error in errors)
        assert any("BENCH_nonexistent.json" in error for error in errors)
        assert any("bench_nonexistent.py" in error for error in errors)
        assert any("src/repro/missing_module.py" in error for error in errors)
        assert any("missing.md" in error for error in errors)

    def test_detects_missing_markdown_names_in_code(self, tmp_path):
        check_docs = _load_script("check_docs")
        source = tmp_path / "module.py"
        source.write_text(
            '"""See DESIGN.md, docs/api.md, api.md and README.md."""\n'
            "# results as quoted in notes/EXPERIMENTS.md\n",
            encoding="utf-8",
        )
        errors = check_docs.check_code_file(source)
        assert len(errors) == 2
        assert "DESIGN.md" in errors[0]
        assert "notes/EXPERIMENTS.md" in errors[1]

    def test_accepts_module_attribute_references(self, tmp_path):
        check_docs = _load_script("check_docs")
        good = tmp_path / "good.md"
        good.write_text(
            "`repro.io.index_store.save_engine` and `repro.geometry.dual` "
            "are real; `repro.geometry.dual.no_such_function` is not.\n",
            encoding="utf-8",
        )
        errors = check_docs.check_file(good)
        assert len(errors) == 1
        assert "no_such_function" in errors[0]

    def test_checks_call_signatures_and_wrapped_spans(self, tmp_path):
        """A span is checked up to its ``(`` and may wrap over one line break."""
        check_docs = _load_script("check_docs")
        doc = tmp_path / "signatures.md"
        doc.write_text(
            "Call `repro.geometry.warp_drive(dataset, oracle)`, then\n"
            "`repro.core.monitoring.check_freshness(index,\n  dataset)`.  Both\n"
            "`repro.core.approx.md_online(dataset, oracle, index, function)` and\n"
            "`repro.core.sampling.validate_index_on_dataset(index,\n  dataset, oracle)` "
            "are real, and `repro.engine/v1` is a schema name.\n",
            encoding="utf-8",
        )
        errors = check_docs.check_file(doc)
        assert len(errors) == 2
        assert "repro.geometry.warp_drive:" in errors[0]
        assert "repro.core.monitoring.check_freshness:" in errors[1]

    def test_cli_entry_point_passes(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_docs.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestDoctests:
    @pytest.mark.parametrize("module_path", _load_script("check_all").DOCTEST_MODULES)
    def test_doctest_modules_pass(self, module_path):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "--doctest-modules",
                "-q",
                "-p",
                "no:cacheprovider",
                module_path,
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "passed" in result.stdout


def _fenced_block(text: str, language: str, after: str) -> str:
    """The body of the first ``language`` fenced block after the text ``after``."""
    pattern = re.compile(rf"```{language}\n(.*?)```", re.S)
    return pattern.search(text, text.index(after)).group(1)


def _command_lines(block: str) -> list[list[str]]:
    """Shell commands of a fenced block, continuation lines joined, comments dropped."""
    joined = block.replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in joined.splitlines() if line.strip()]


class TestDocumentedEntryPoints:
    def test_readme_quickstart_and_command_lines_finish(self, tmp_path):
        """The quickstart block, the "serve many" block that continues it, then
        the two CLI commands through ``repro.cli.main``, in one process."""
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        api_guide = (REPO_ROOT / "docs" / "api.md").read_text(encoding="utf-8")
        quickstart = _fenced_block(readme, "python", after="## Quickstart")
        serve_many = _fenced_block(readme, "python", after="## Preprocess once, serve many")
        commands = _command_lines(
            _fenced_block(readme, "bash", after="available on the command line")
        )
        assert [command[0] for command in commands] == ["repro-fair-ranking"] * 2
        # docs/api.md repeats both examples, and the package docstring the
        # quickstart; they must stay the bounded ones run here.
        config = re.compile(r"ApproxConfig\([^)]*\)")
        api_entry = _fenced_block(api_guide, "python", after="## Entry points")
        assert config.findall(api_entry) == config.findall(quickstart)
        assert config.findall(repro.__doc__) == config.findall(quickstart)
        api_commands = _fenced_block(api_guide, "bash", after="## Command line")
        assert _command_lines(api_commands) == commands
        (tmp_path / "queries.txt").write_text("0.5,0.3,0.2\n0.2,0.4,0.4\n", encoding="utf-8")
        script = (
            quickstart
            + serve_many
            + "\nfrom repro.cli import main\n"
            + f"for argv in {[command[1:] for command in commands]!r}:\n"
            + "    assert main(argv) == 0, argv\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "engine saved to engine.json" in result.stdout
        assert result.stdout.count(" -> ") == 2
        assert (tmp_path / "engine.json").exists()

    @pytest.mark.parametrize("script", EXAMPLES)
    def test_example_scripts_finish(self, script, tmp_path):
        """Each runs as documented (``python examples/<script>``) and writes no file."""
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / script)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.strip()
        assert list(tmp_path.iterdir()) == []
