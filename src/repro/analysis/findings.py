"""Structured findings emitted by the contract linter.

A :class:`Finding` pins one contract violation to a file, a line, and a rule
id, plus an *anchor* — the stable identifier that allowlist entries match
against (see :mod:`repro.analysis.suppress`).  Findings are
plain frozen dataclasses so reporters can serialise them without knowing
anything about the rules that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One contract violation, pinned to a source location.

    Attributes
    ----------
    file:
        Root-relative POSIX path of the offending file.
    line:
        1-based line number of the violation.
    rule:
        Id of the rule that fired (e.g. ``"typed-exceptions"``).
    message:
        Human-readable description of what was violated and how to fix it.
    anchor:
        Stable identifier for allowlisting; every built-in rule anchors its
        findings at ``file``.
    """

    file: str
    line: int
    rule: str
    message: str
    anchor: str

    def to_dict(self) -> dict[str, object]:
        """JSON-compatible representation (schema-stable, see the reporter)."""
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "anchor": self.anchor,
        }

    def render(self) -> str:
        """One-line text rendering: ``file:line: [rule] message``."""
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"
