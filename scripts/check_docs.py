#!/usr/bin/env python
"""Fail when the documentation references code that no longer exists.

Docs rot silently: a module gets renamed, a benchmark JSON gets replaced, and
the guides keep pointing at the old names.  This checker walks ``README.md``
and every ``docs/*.md`` file and verifies that each code reference still
resolves:

* inline-code spans that are dotted ``repro.…`` paths must resolve to an
  importable module (a trailing attribute, e.g. ``repro.io.index_store.save_engine``,
  must exist on the module);
* inline-code spans naming ``BENCH_*.json`` trajectories must exist at the
  repository root;
* inline-code spans naming ``bench_*.py`` modules must exist in ``benchmarks/``;
* any ``src/…``, ``docs/…``, ``tests/…``, ``benchmarks/…``, ``examples/…`` or
  ``scripts/…`` path mentioned anywhere (prose, tables, fenced command
  blocks) must exist;
* relative markdown link targets must exist.

It also walks the Python files under ``src/``, ``examples/`` and
``benchmarks/``: every ``*.md`` name their docstrings, comments or help texts
mention must exist at the repository root or in ``docs/``.

Run it as a tier-2 check::

    PYTHONPATH=src python scripts/check_docs.py

Exit status 0 means every reference resolved; 1 lists the stale ones.  The
same checks run inside the test suite via ``tests/test_docs.py``.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Spans that must import as ``repro`` modules (optionally ending in attributes).
_MODULE_SPAN = re.compile(r"repro(\.[A-Za-z_]\w*)+\Z")
#: Committed benchmark-trajectory files referenced by name.
_BENCH_JSON_SPAN = re.compile(r"BENCH_\w+\.json\Z")
#: Benchmark scripts referenced by bare file name.
_BENCH_PY_SPAN = re.compile(r"bench_\w+\.py\Z")
#: Repo-relative paths mentioned anywhere in the text.
_PATH_TOKEN = re.compile(r"(?:src|docs|tests|benchmarks|examples|scripts)/[\w./*-]*")
#: Inline code spans and markdown link targets.
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_LINK_TARGET = re.compile(r"\[[^\]\n]*\]\(([^)#\s]+)\)")
#: Markdown file names mentioned in code, with any leading directories.
_MD_NAME = re.compile(r"(?<![\w./-])((?:[\w-]+/)*[\w-]+\.md)\b")
#: Code trees whose ``*.md`` mentions must resolve.
_CODE_DIRS = ("src", "examples", "benchmarks")


def _module_error(reference: str) -> str | None:
    """Return an error string if a dotted ``repro.…`` reference does not resolve."""
    parts = reference.split(".")
    for split in range(len(parts), 1, -1):
        candidate = ".".join(parts[:split])
        relative = Path(*parts[:split])
        is_module = (REPO_ROOT / "src" / relative).with_suffix(".py").exists()
        is_package = (REPO_ROOT / "src" / relative / "__init__.py").exists()
        if not (is_module or is_package):
            continue
        attributes = parts[split:]
        if not attributes:
            return None
        try:
            module = importlib.import_module(candidate)
        except Exception as error:  # pragma: no cover - import-time failure
            return f"{reference}: importing {candidate} failed ({error})"
        target = module
        for attribute in attributes:
            if not hasattr(target, attribute):
                return f"{reference}: {candidate} has no attribute {'.'.join(attributes)}"
            target = getattr(target, attribute)
        return None
    return f"{reference}: no module or package under src/ matches"


def _iter_docs() -> list[Path]:
    docs = [REPO_ROOT / "README.md"]
    docs_dir = REPO_ROOT / "docs"
    if docs_dir.is_dir():
        docs.extend(sorted(docs_dir.glob("*.md")))
    return [path for path in docs if path.exists()]


def check_file(path: Path) -> list[str]:
    """Return the stale references of one markdown file."""
    text = path.read_text(encoding="utf-8")
    errors: list[str] = []

    for span in _CODE_SPAN.findall(text):
        span = span.strip()
        if _MODULE_SPAN.fullmatch(span):
            error = _module_error(span)
            if error:
                errors.append(error)
        elif _BENCH_JSON_SPAN.fullmatch(span):
            if not (REPO_ROOT / span).exists():
                errors.append(f"{span}: trajectory file missing at the repository root")
        elif _BENCH_PY_SPAN.fullmatch(span):
            if not (REPO_ROOT / "benchmarks" / span).exists():
                errors.append(f"{span}: no such benchmark in benchmarks/")

    for token in _PATH_TOKEN.findall(text):
        token = token.rstrip(".,:;")
        if "*" in token:
            continue  # glob illustration, not a concrete path
        if not (REPO_ROOT / token).exists():
            errors.append(f"{token}: path does not exist")

    for target in _LINK_TARGET.findall(text):
        if "://" in target or target.startswith("mailto:"):
            continue
        if not (path.parent / target).exists():
            errors.append(f"link target {target}: does not exist relative to {path.name}")

    try:
        location = path.relative_to(REPO_ROOT)
    except ValueError:
        location = path.name
    return [f"{location}: {error}" for error in errors]


def _iter_code() -> list[Path]:
    return sorted(
        path
        for directory in _CODE_DIRS
        if (REPO_ROOT / directory).is_dir()
        for path in (REPO_ROOT / directory).rglob("*.py")
    )


def check_code_file(path: Path) -> list[str]:
    """Return the ``*.md`` names one Python file mentions that do not exist.

    A name resolves when it exists relative to the repository root or to
    ``docs/`` (so both ``docs/api.md`` and ``api.md`` name the API guide).
    """
    text = path.read_text(encoding="utf-8")
    try:
        location = path.relative_to(REPO_ROOT)
    except ValueError:
        location = path.name
    return [
        f"{location}: {name}: no such markdown file at the repository root or in docs/"
        for name in _MD_NAME.findall(text)
        if not ((REPO_ROOT / name).exists() or (REPO_ROOT / "docs" / name).exists())
    ]


def collect_errors() -> list[str]:
    """Check every documentation and code file and return all stale references."""
    errors: list[str] = []
    for path in _iter_docs():
        errors.extend(check_file(path))
    for path in _iter_code():
        errors.extend(check_code_file(path))
    return errors


def main() -> int:
    documents = _iter_docs() + _iter_code()
    errors = collect_errors()
    if errors:
        print(f"check_docs: {len(errors)} stale reference(s) in {len(documents)} file(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"check_docs: OK ({len(documents)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
