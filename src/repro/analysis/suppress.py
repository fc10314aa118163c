"""Suppression of findings: inline comments and the committed allowlist.

Two mechanisms, with different intended lifetimes:

* an inline comment on the offending line silences one finding in place —
  the marker is a real comment of the form ``repro: allow-`` followed by the
  rule id (detected with :mod:`tokenize`, so the same text inside a string
  or docstring never counts);
* an allowlist file holds the *deliberate*, reviewed exceptions — one
  ``<rule-id> <pattern>`` pair per line, where the :mod:`fnmatch` pattern is
  matched against each finding's file path.  Unused entries are reported so
  the allowlist cannot rot.

The repository convention is to keep the tree free of inline suppressions and
route every deliberate exception through the committed allowlist
(``contracts_allowlist.txt`` at the repo root) — the tier-1 gate enforces it.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path

from repro.analysis.findings import Finding
from repro.analysis.model import ModuleInfo

__all__ = [
    "SuppressionComment",
    "collect_suppressions",
    "AllowlistEntry",
    "Allowlist",
    "ALLOWLIST_FILENAME",
    "discover_allowlist",
]

#: Default allowlist file name, discovered by walking up from the scanned tree.
ALLOWLIST_FILENAME = "contracts_allowlist.txt"

_MARKER = re.compile(r"repro:\s*allow-([A-Za-z0-9_-]+)")


@dataclass(frozen=True)
class SuppressionComment:
    """One inline suppression marker found in a source file."""

    file: str
    line: int
    rule: str


def collect_suppressions(module: ModuleInfo) -> list[SuppressionComment]:
    """Inline suppression markers of one module, via real COMMENT tokens only."""
    comments: list[SuppressionComment] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(module.source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            for match in _MARKER.finditer(token.string):
                comments.append(
                    SuppressionComment(module.relpath, token.start[0], match.group(1))
                )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # A file broken enough to defeat the tokenizer already surfaces as a
        # syntax-error finding; it simply cannot carry suppressions.
        return []
    return comments


@dataclass(frozen=True)
class AllowlistEntry:
    """One reviewed exception: a rule id plus a file path pattern."""

    rule: str
    pattern: str
    line: int

    def matches(self, finding: Finding) -> bool:
        return self.rule == finding.rule and fnmatch(finding.file, self.pattern)


class Allowlist:
    """Parsed allowlist file; tracks which entries actually matched."""

    def __init__(self, entries: tuple[AllowlistEntry, ...], path: Path | None = None):
        self.entries = entries
        self.path = path
        self._used: set[AllowlistEntry] = set()

    @classmethod
    def empty(cls) -> "Allowlist":
        return cls(())

    @classmethod
    def load(cls, path: Path) -> "Allowlist":
        """Parse ``<rule-id> <pattern>`` lines; ``#`` starts a comment."""
        entries: list[AllowlistEntry] = []
        for lineno, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                # A rule id without a pattern can never match; keep it visible
                # as an (unused) entry instead of silently dropping it.
                parts = [parts[0], ""]
            entries.append(AllowlistEntry(parts[0], parts[1], lineno))
        return cls(tuple(entries), path)

    def covers(self, finding: Finding) -> bool:
        """True when some entry matches; matching entries are marked used."""
        covered = False
        for entry in self.entries:
            if entry.matches(finding):
                self._used.add(entry)
                covered = True
        return covered

    def unused_entries(self) -> tuple[AllowlistEntry, ...]:
        """Entries that matched no finding in this run (stale allowlisting)."""
        return tuple(e for e in self.entries if e not in self._used)


def discover_allowlist(paths: list[Path]) -> Path | None:
    """Find the nearest ``contracts_allowlist.txt`` above the scanned tree.

    Walks from the first scanned path's directory up to the filesystem root
    and returns the first hit, so ``python -m repro.analysis src/repro`` run
    from the repository root picks up the committed allowlist automatically.
    """
    if not paths:
        return None
    start = paths[0].resolve()
    if start.is_file():
        start = start.parent
    for candidate in [start, *start.parents]:
        allowlist = candidate / ALLOWLIST_FILENAME
        if allowlist.is_file():
            return allowlist
    return None
