"""Static contract analysis for the ``repro`` source tree.

An AST rule engine that enforces, before any test runs, the invariants past
PRs established at runtime: the PR-6 typed exception discipline
(``typed-exceptions``), seeded-RNG/injectable-clock determinism
(``determinism``), the PR-8 injected clock in observability code
(``obs-clock``), and registration through the registry API only
(``registry-hygiene``).  Files that fail to parse are reported as
``syntax-error`` findings instead of crashing the run.  The ``QueryEngine``
seam and scalar/batched oracle parity are checked against the imported
classes by ``tests/test_contracts.py``, which ``scripts/check_contracts.py``
runs after the linter.

Run it as a gate::

    PYTHONPATH=src python -m repro.analysis src/repro

or from code::

    from repro.analysis import run_analysis
    result = run_analysis([Path("src/repro")])
    assert result.ok, result.findings

Deliberate exceptions live in the committed allowlist
(``contracts_allowlist.txt``); one-off inline suppressions exist but the
tier-1 gate keeps the tree free of them.  See ``docs/static_analysis.md``.
"""

from repro.analysis.findings import Finding
from repro.analysis.model import ProjectModel
from repro.analysis.report import REPORT_FORMAT, render_json, render_text
from repro.analysis.rules import (
    DeterminismRule,
    RegistryHygieneRule,
    Rule,
    SYNTAX_ERROR_RULE_ID,
    TypedExceptionsRule,
    all_rules,
    rules_by_id,
)
from repro.analysis.runner import AnalysisResult, main, run_analysis
from repro.analysis.suppress import (
    ALLOWLIST_FILENAME,
    Allowlist,
    AllowlistEntry,
    SuppressionComment,
    collect_suppressions,
    discover_allowlist,
)

__all__ = [
    "Finding",
    "ProjectModel",
    "Rule",
    "TypedExceptionsRule",
    "DeterminismRule",
    "RegistryHygieneRule",
    "all_rules",
    "rules_by_id",
    "SYNTAX_ERROR_RULE_ID",
    "AnalysisResult",
    "run_analysis",
    "main",
    "Allowlist",
    "AllowlistEntry",
    "ALLOWLIST_FILENAME",
    "SuppressionComment",
    "collect_suppressions",
    "discover_allowlist",
    "REPORT_FORMAT",
    "render_text",
    "render_json",
]
