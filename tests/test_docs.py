"""Documentation health checks (tier-2, but cheap enough to ride in tier-1).

Two enforcement points:

* ``scripts/check_docs.py`` — every code reference in ``README.md`` and
  ``docs/*.md`` (module paths, ``BENCH_*`` trajectory names, repo paths,
  relative links) must still resolve;
* a ``--doctest-modules`` pytest run over each of ``scripts/check_all.py``'s
  ``DOCTEST_MODULES`` — the ``>>>`` examples in their public docstrings
  must stay runnable.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


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
