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
    findings = run_analysis([Path("src/repro")])
    assert findings == [], findings

Every finding fails the gate: there is no allowlist and no inline
suppression.  See ``docs/static_analysis.md``.
"""

from repro.analysis.model import ProjectModel
from repro.analysis.rules import (
    DeterminismRule,
    Finding,
    RegistryHygieneRule,
    Rule,
    SYNTAX_ERROR_RULE_ID,
    TypedExceptionsRule,
    all_rules,
)
from repro.analysis.runner import main, run_analysis

__all__ = [
    "Finding",
    "ProjectModel",
    "Rule",
    "TypedExceptionsRule",
    "DeterminismRule",
    "RegistryHygieneRule",
    "all_rules",
    "SYNTAX_ERROR_RULE_ID",
    "run_analysis",
    "main",
]
