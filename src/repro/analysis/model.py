"""The project model: a purely syntactic view of a Python source tree.

Rules do not import the code they check — importing would execute it, and a
linter that executes its subject cannot be run on broken or hostile trees.
Instead :class:`ProjectModel` parses every ``*.py`` file with :mod:`ast` and
exposes each module's syntax tree, dotted module name and import table
(alias → dotted target), so a rule can tell that ``np.random.default_rng``
really is ``numpy.random.default_rng``.  Contracts that need class
hierarchies and method resolution are checked against the imported classes
by ``tests/test_contracts.py`` instead.

Files that fail to parse are collected as :class:`ParseFailure` records — the
runner turns them into ``syntax-error`` findings instead of crashing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = [
    "ModuleInfo",
    "ParseFailure",
    "ProjectModel",
    "dotted_name",
]


def dotted_name(node: ast.AST) -> str | None:
    """Render a ``Name``/``Attribute`` chain as a dotted string, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        prefix = dotted_name(node.value)
        if prefix is None:
            return None
        return f"{prefix}.{node.attr}"
    return None


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    relpath: str
    module_name: str
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)

    def resolve(self, name: str | None) -> str | None:
        """Expand the first segment of a dotted name through the import table.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        under ``import numpy as np``; unknown names pass through unchanged.
        """
        if name is None:
            return None
        head, _, rest = name.partition(".")
        if head in self.imports:
            target = self.imports[head]
            return f"{target}.{rest}" if rest else target
        return name


@dataclass(frozen=True)
class ParseFailure:
    """A file the parser rejected (reported as a ``syntax-error`` finding)."""

    path: Path
    relpath: str
    line: int
    message: str


def _module_name_for(path: Path) -> str:
    """Dotted import name of a file, derived from the ``__init__.py`` chain."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _collect_imports(tree: ast.Module, module_name: str) -> dict[str, str]:
    imports: dict[str, str] = {}
    package = module_name.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".") if package else []
                anchor = anchor[: len(anchor) - (node.level - 1)] if node.level > 1 else anchor
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                imports[alias.asname or alias.name] = target
    return imports


class ProjectModel:
    """Parsed view of a source tree, shared by every rule in one run."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.modules: list[ModuleInfo] = []
        self.failures: list[ParseFailure] = []

    @classmethod
    def build(cls, paths: list[Path], root: Path) -> "ProjectModel":
        """Parse every ``*.py`` file under ``paths`` (files or directories)."""
        model = cls(root)
        for path in _iter_source_files(paths):
            model._add_file(path)
        return model

    def _add_file(self, path: Path) -> None:
        relpath = _relative_to(path, self.root)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, ValueError) as error:
            line = getattr(error, "lineno", None) or 1
            self.failures.append(
                ParseFailure(path, relpath, int(line), str(error.args[0] if error.args else error))
            )
            return
        except OSError as error:
            self.failures.append(ParseFailure(path, relpath, 1, str(error)))
            return
        module = ModuleInfo(
            path=path,
            relpath=relpath,
            module_name=_module_name_for(path),
            tree=tree,
        )
        module.imports = _collect_imports(tree, module.module_name)
        self.modules.append(module)


def _iter_source_files(paths: list[Path]) -> Iterator[Path]:
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def _relative_to(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()
