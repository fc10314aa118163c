"""The contract rules: each one statically enforces an invariant a past PR
established at runtime.

Every rule walks the shared :class:`~repro.analysis.model.ProjectModel` and
yields :class:`Finding` records; it never imports or executes the code under
analysis.  The two contracts that need the classes' real method resolution —
the engine seam and oracle batch parity — are executed tests instead
(``tests/test_contracts.py``).  See ``docs/static_analysis.md`` for the
rationale behind each rule id.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.model import ModuleInfo, ProjectModel, dotted_name

__all__ = [
    "Finding",
    "Rule",
    "TypedExceptionsRule",
    "DeterminismRule",
    "ObsClockRule",
    "RegistryHygieneRule",
    "all_rules",
    "SYNTAX_ERROR_RULE_ID",
]

#: Pseudo-rule id attached to findings for files that failed to parse.
SYNTAX_ERROR_RULE_ID = "syntax-error"


@dataclass(frozen=True, order=True)
class Finding:
    """One contract violation, pinned to a source location.

    ``file`` is the root-relative POSIX path, ``line`` is 1-based, ``rule`` is
    the id of the rule that fired and ``message`` says how to fix it.
    """

    file: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        """One-line text rendering: ``file:line: [rule] message``."""
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


class Rule(ABC):
    """One statically checkable contract.

    Subclasses set ``rule_id`` (the id findings carry) and implement
    :meth:`check`; the class docstring says which invariant the rule guards.
    """

    rule_id: str

    @abstractmethod
    def check(self, model: ProjectModel) -> Iterator[Finding]:
        """Yield one finding per violation found in the model."""

    def _finding(self, module: ModuleInfo, line: int, message: str) -> Finding:
        return Finding(module.relpath, line, self.rule_id, message)


# --------------------------------------------------------------------------- #
# typed-exceptions
# --------------------------------------------------------------------------- #
_BANNED_RAISES = {
    "Exception",
    "BaseException",
    "ValueError",
    "TypeError",
    "RuntimeError",
    "KeyError",
    "IndexError",
    "AttributeError",
    "LookupError",
    "ArithmeticError",
    "ZeroDivisionError",
    "OverflowError",
    "AssertionError",
    "OSError",
    "IOError",
    "NameError",
    "StopIteration",
    "UnicodeError",
}


def _module_getattr_raises(tree: ast.Module) -> set[ast.Raise]:
    """The ``raise`` statements directly in a module-level ``def __getattr__``.

    Nested functions and classes are other scopes, so their raises are not
    collected.
    """
    pending = [
        statement
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
        for statement in node.body
    ]
    raises: set[ast.Raise] = set()
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Raise):
            raises.add(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            pending.extend(ast.iter_child_nodes(node))
    return raises


class TypedExceptionsRule(Rule):
    """Library code raises the typed hierarchy, not bare builtins or asserts.

    ``raise ValueError(...)`` and control-flow ``assert`` make failures
    unclassifiable for callers that guard pipelines with ``except
    ReproError``; the pool additionally passes two typed errors through
    instead of isolating them as per-query failures.  ``NotImplementedError`` (abstract
    stubs) and ``SystemExit`` (CLI entry points) stay legal, and so does
    ``raise AttributeError`` directly in a module-level ``__getattr__``: PEP
    562 requires it for unknown module attributes (``hasattr`` and the import
    machinery depend on it).
    """

    rule_id = "typed-exceptions"

    def check(self, model: ProjectModel) -> Iterator[Finding]:
        for module in model.modules:
            pep562 = _module_getattr_raises(module.tree)
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    target = node.exc
                    if isinstance(target, ast.Call):
                        target = target.func
                    name = dotted_name(target)
                    if name is None:
                        continue
                    resolved = module.resolve(name) or name
                    tail = resolved.split(".")[-1]
                    builtin = resolved == tail or resolved.startswith("builtins.")
                    if tail == "AttributeError" and node in pep562:
                        continue
                    if builtin and tail in _BANNED_RAISES:
                        yield self._finding(
                            module,
                            node.lineno,
                            f"raise {tail}: library code must raise a typed "
                            "exception from repro.exceptions so callers can "
                            "catch ReproError",
                        )
                elif isinstance(node, ast.Assert):
                    yield self._finding(
                        module,
                        node.lineno,
                        "control-flow assert in library code: asserts vanish "
                        "under -O; raise a typed exception from "
                        "repro.exceptions instead",
                    )


# --------------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------------- #
#: numpy.random attributes that are seedable constructors, not global-state draws.
_SAFE_NP_RANDOM = {
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
    "default_rng",
}
_WALL_CLOCK_TAILS = {
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}
#: Process-pool constructors whose workers inherit ambient state on fork.
_POOL_EXECUTORS = {
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
}


class DeterminismRule(Rule):
    """Serving paths stay deterministic: seeded RNG, injectable clocks.

    Flags unseeded ``np.random.default_rng()``, every legacy global-state
    ``np.random.*`` draw, stdlib ``random.*`` module calls, ``time.time()``
    and ``datetime.now()``-style wall clocks.  Monotonic duration measurement
    (``time.monotonic`` / ``time.perf_counter``) is fine — the PR-6 clock seam
    injects it; wall-clock and hidden RNG state are not reproducible across
    shards or replays.

    Inside the parallel modules the rule additionally requires every
    ``ProcessPoolExecutor(...)`` to pass an ``initializer=``: forked workers
    inherit the parent's ambient trace recorder, and a pool without a worker
    initializer that detaches it
    (:func:`repro.obs.trace.reset_stage_recorder`) records worker spans into
    a copy of the parent's buffer that the parent never sees.
    """

    rule_id = "determinism"

    @staticmethod
    def _parallel_scope(module: ModuleInfo) -> bool:
        name = module.module_name
        return (
            name == "repro.parallel"
            or name.startswith("repro.parallel.")
            or "parallel" in module.relpath.split("/")
        )

    def check(self, model: ProjectModel) -> Iterator[Finding]:
        for module in model.modules:
            in_parallel = self._parallel_scope(module)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                # Only names that trace back to an import can denote the
                # stdlib/numpy modules; a local variable that happens to be
                # called ``random`` or ``time`` must not fire.
                if name.split(".")[0] not in module.imports:
                    continue
                resolved = module.resolve(name)
                if resolved is None:
                    continue
                if (
                    in_parallel
                    and resolved in _POOL_EXECUTORS
                    and not any(
                        keyword.arg == "initializer" for keyword in node.keywords
                    )
                ):
                    yield self._finding(
                        module,
                        node.lineno,
                        "ProcessPoolExecutor(...) without initializer= in a "
                        "parallel module: forked workers inherit the ambient "
                        "trace recorder; pass an initializer that calls "
                        "reset_stage_recorder() to detach it",
                    )
                message = self._violation(resolved, node)
                if message is not None:
                    yield self._finding(module, node.lineno, message)

    @staticmethod
    def _violation(resolved: str, node: ast.Call) -> str | None:
        parts = resolved.split(".")
        if resolved in ("time.time", "time.time_ns"):
            return (
                f"{resolved}() reads the wall clock; inject a clock (see the "
                "repro.clock seam) or use time.monotonic for durations"
            )
        if len(parts) >= 2 and tuple(parts[-2:]) in _WALL_CLOCK_TAILS:
            return (
                f"{resolved}() reads the wall clock; pass timestamps in "
                "explicitly so runs are replayable"
            )
        if parts[0] == "numpy" and len(parts) >= 3 and parts[1] == "random":
            tail = parts[2]
            if tail == "default_rng":
                if not node.args and not node.keywords:
                    return (
                        "np.random.default_rng() without a seed draws from OS "
                        "entropy; pass an explicit seed or accept an rng parameter"
                    )
                return None
            if tail not in _SAFE_NP_RANDOM:
                return (
                    f"np.random.{tail} uses numpy's hidden global RNG state; "
                    "use a seeded np.random.default_rng(...) generator"
                )
            return None
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] == "Random" and (node.args or node.keywords):
                return None
            return (
                f"random.{parts[1]} uses the stdlib's hidden global RNG state; "
                "use a seeded np.random.default_rng(...) generator"
            )
        return None


# --------------------------------------------------------------------------- #
# obs-clock
# --------------------------------------------------------------------------- #
#: Packages (and path segments) whose durations come from the clock seam only.
_CLOCK_PACKAGES = ("obs", "experiments")
_TIME_IMPORT_ADVICE = (
    "inside an observability or experiment module: read span durations or "
    "accept a clock argument (repro.clock) so timings stay replayable under a "
    "fake clock"
)


class ObsClockRule(Rule):
    """Observability and experiment code never reads the process clock directly.

    The PR-8 observability layer promises byte-identical trace exports and
    metrics snapshots under a fake clock, which only holds if every duration
    inside ``repro.obs`` flows through the injected clock seam
    (``repro.clock.monotonic_clock`` passed in, never called as ``time.*``).
    The experiments report span durations on that same clock, so
    ``repro.experiments`` is in scope too.  A direct ``import time`` — or any
    call resolving into the ``time`` module — inside an ``obs`` or
    ``experiments`` package is a second, untestable timing source.
    """

    rule_id = "obs-clock"

    @staticmethod
    def _in_scope(module: ModuleInfo) -> bool:
        package = module.module_name.split(".")[:2]
        if package[0] == "repro" and package[-1] in _CLOCK_PACKAGES:
            return True
        return any(part in _CLOCK_PACKAGES for part in module.relpath.split("/"))

    def check(self, model: ProjectModel) -> Iterator[Finding]:
        for module in model.modules:
            if not self._in_scope(module):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.split(".")[0] == "time":
                            yield self._finding(
                                module, node.lineno, f"import time {_TIME_IMPORT_ADVICE}"
                            )
                elif isinstance(node, ast.ImportFrom):
                    if node.level == 0 and (node.module or "").split(".")[0] == "time":
                        yield self._finding(
                            module, node.lineno, f"from time import ... {_TIME_IMPORT_ADVICE}"
                        )
                elif isinstance(node, ast.Call):
                    name = dotted_name(node.func)
                    if name is None or name.split(".")[0] not in module.imports:
                        continue
                    resolved = module.resolve(name)
                    if resolved is not None and (
                        resolved == "time" or resolved.startswith("time.")
                    ):
                        yield self._finding(
                            module,
                            node.lineno,
                            f"{resolved}() called inside an observability or "
                            "experiment module: durations must come from the "
                            "injected clock seam (repro.clock), never time.* "
                            "directly",
                        )


# --------------------------------------------------------------------------- #
# registry-hygiene
# --------------------------------------------------------------------------- #
_REGISTRY_NAMES = {"_ENGINE_REGISTRY", "_CONFIG_TO_NAME"}
_MUTATING_METHODS = {"update", "setdefault", "pop", "popitem", "clear"}
_REGISTRY_HOME = "repro.core.engine"
_REGISTRY_API = "register_engine"


class RegistryHygieneRule(Rule):
    """Engines are registered through the registry API, never by dict surgery.

    Direct writes to ``_ENGINE_REGISTRY`` / ``_CONFIG_TO_NAME`` bypass the
    duplicate-name check and the config↔name pairing that
    ``register_engine`` maintains, so dispatch and payload round-trips
    silently desynchronise.  Only ``register_engine`` itself (in
    ``repro.core.engine``) may mutate the registry dicts.
    """

    rule_id = "registry-hygiene"

    def check(self, model: ProjectModel) -> Iterator[Finding]:
        for module in model.modules:
            yield from self._check_module(module)

    def _check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        stack: list[str] = []

        def allowed() -> bool:
            return module.module_name == _REGISTRY_HOME and _REGISTRY_API in stack

        def registry_target(node: ast.AST) -> str | None:
            name = dotted_name(node)
            if name is not None and name.split(".")[-1] in _REGISTRY_NAMES:
                return name.split(".")[-1]
            return None

        def visit(node: ast.AST) -> Iterator[Finding]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append(node.name)
                for child in ast.iter_child_nodes(node):
                    yield from visit(child)
                stack.pop()
                return
            hit: str | None = None
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        hit = registry_target(target.value)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        hit = registry_target(target.value)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATING_METHODS:
                    hit = registry_target(node.func.value)
            if hit is not None and not allowed():
                yield self._finding(
                    module,
                    node.lineno,
                    f"direct mutation of {hit}: register engines through "
                    "repro.core.engine.register_engine, never by writing to "
                    "the registry dicts",
                )
            for child in ast.iter_child_nodes(node):
                yield from visit(child)

        yield from visit(module.tree)


def all_rules() -> tuple[Rule, ...]:
    """One instance of every built-in contract rule, in report order."""
    return (
        TypedExceptionsRule(),
        DeterminismRule(),
        ObsClockRule(),
        RegistryHygieneRule(),
    )
