"""Orchestration: parse the tree once, run every rule, report the findings.

:func:`run_analysis` is the library entry point (used by the tier-1 gate in
``tests/test_static_analysis.py``); :func:`main` is the CLI behind
``python -m repro.analysis``, which ``scripts/check_contracts.py`` calls.

Exit codes: ``0`` clean, ``1`` at least one finding (including
``syntax-error`` findings for unparsable files), ``2`` a missing path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.model import ProjectModel
from repro.analysis.rules import SYNTAX_ERROR_RULE_ID, Finding, all_rules

__all__ = ["run_analysis", "main"]


def run_analysis(paths: list[Path], *, root: Path | None = None) -> list[Finding]:
    """Run every contract rule over ``paths``; returns the findings, sorted.

    ``root`` anchors the relative paths findings carry (default: the current
    directory).
    """
    model = ProjectModel.build(paths, Path.cwd() if root is None else root)
    findings = [
        Finding(
            file=failure.relpath,
            line=failure.line,
            rule=SYNTAX_ERROR_RULE_ID,
            message=f"file does not parse: {failure.message}",
        )
        for failure in model.failures
    ]
    for rule in all_rules():
        findings.extend(rule.check(model))
    return sorted(findings)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically enforce the repo's exception/determinism/clock/"
        "registry contracts (see docs/static_analysis.md).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    paths = [Path(p) for p in parser.parse_args(argv).paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"repro.analysis: no such path: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    findings = run_analysis(paths)
    for finding in findings:
        print(finding.render())
    print(f"repro.analysis: {len(findings)} finding(s)" if findings else "repro.analysis: OK")
    return 1 if findings else 0
