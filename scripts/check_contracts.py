#!/usr/bin/env python
"""Run the repo's six contracts: the linter, the executed contract tests, mypy.

The linter (:mod:`repro.analysis`) statically enforces four contracts —
typed exceptions, determinism, the observability clock, registry hygiene —
over ``src/repro`` with the committed allowlist (``contracts_allowlist.txt``).
The other two need the classes' real method resolution, so they are executed
tests over the imported classes (``tests/test_contracts.py``): every
registered engine accepts the ``QueryEngine`` seam, and every oracle that
overrides ``is_satisfactory`` keeps a batched twin.  On top of that, when mypy
is installed, the two fully annotated modules (``src/repro/exceptions.py`` and
``src/repro/core/engine.py``) are checked with ``mypy --strict``; when mypy
is absent the step is skipped cleanly.

Run it as a tier-2 check::

    PYTHONPATH=src python scripts/check_contracts.py

Exit status 0 means every contract holds; 1 lists the violations.  The same
gates run inside the test suite via ``tests/test_static_analysis.py`` and
``tests/test_contracts.py``.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The executed contracts: the engine seam and oracle batch parity.
CONTRACT_TESTS = "tests/test_contracts.py"

#: Modules held to ``mypy --strict`` (scoped: imports are not followed).
STRICT_MODULES = ("src/repro/exceptions.py", "src/repro/core/engine.py")


def run_linter() -> int:
    """Run the contract linter over ``src/repro``; returns its exit code."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.analysis import main as analysis_main

    return analysis_main([str(REPO_ROOT / "src" / "repro")])


def run_contract_tests() -> int:
    """Run the executed seam and oracle-parity contracts; returns pytest's exit code."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", CONTRACT_TESTS],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        print(f"check_contracts: {CONTRACT_TESTS} failed:")
        print(result.stdout.strip())
        if result.stderr.strip():
            print(result.stderr.strip())
        return result.returncode
    print(f"check_contracts: {CONTRACT_TESTS} OK")
    return 0


def run_mypy() -> int:
    """Scoped ``mypy --strict`` over the annotated modules; 0 when skipped."""
    if importlib.util.find_spec("mypy") is None:
        print("check_contracts: mypy not installed; skipping the strict typing pass")
        return 0
    command = [
        sys.executable,
        "-m",
        "mypy",
        "--strict",
        "--follow-imports=skip",
        "--ignore-missing-imports",
        "--no-error-summary",
        *STRICT_MODULES,
    ]
    result = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
    if result.returncode != 0:
        print("check_contracts: mypy --strict failed:")
        print(result.stdout.strip())
        if result.stderr.strip():
            print(result.stderr.strip())
        return 1
    print(f"check_contracts: mypy --strict OK ({', '.join(STRICT_MODULES)})")
    return 0


def main() -> int:
    statuses = (run_linter(), run_contract_tests(), run_mypy())
    return 1 if any(statuses) else 0


if __name__ == "__main__":
    sys.exit(main())
