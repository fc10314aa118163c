"""The contract-linter gate (tier-1) and the rule engine's own tests.

Two jobs, same pattern as ``tests/test_docs.py`` driving ``check_docs``:

* the gate — ``repro.analysis`` must run clean over the whole ``src/repro``
  tree with no exemption file and no suppression mechanism, so every
  contract the linter encodes (typed exceptions, determinism, the
  observability clock, registry hygiene) stays enforced forever;
* the engine — each rule is proven to fire on a seeded violation fixture and
  stay quiet on the matching clean fixture, and the machinery around the
  rules (the PEP 562 case of ``typed-exceptions``, syntax-error reporting,
  ordering, the CLI's exit codes) is pinned.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import run_analysis

pytestmark = pytest.mark.static_analysis

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "contracts"
CLI_ENV = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}


def run_over(paths):
    return run_analysis([Path(p) for p in paths])


def _string_annotation_names(tree: ast.AST) -> set[str]:
    """Names inside the string parts of the module's annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations.append(node.returns)
            annotations += [
                argument.annotation
                for argument in (
                    *arguments.posonlyargs,
                    *arguments.args,
                    *arguments.kwonlyargs,
                    arguments.vararg,
                    arguments.kwarg,
                )
                if argument is not None
            ]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names |= {name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)}
    return names


def unused_imports(path: Path) -> list[str]:
    """``line: name`` of each imported name the module never uses.

    A name counts as used when the module reads it, lists it in ``__all__``
    or names it in a string annotation.  ``from __future__`` imports and
    imports marked ``# noqa: F401`` (kept for their side effects) are exempt.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        # ``import a.b`` binds ``a``.
        imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {entry.value for entry in ast.walk(node.value) if isinstance(entry, ast.Constant)}
    used |= _string_annotation_names(tree)
    return [f"{line}: {name}" for line, name in imported if name not in used]


class TestTier1Gate:
    def test_source_tree_passes_with_no_allowlist(self):
        findings = run_over([SRC_TREE])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_source_tree_has_no_unused_imports(self):
        unused = {
            str(path.relative_to(SRC_TREE)): names
            for path in sorted(SRC_TREE.rglob("*.py"))
            if (names := unused_imports(path))
        }
        assert unused == {}

    def test_cli_entry_point_passes_on_the_tree(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src/repro"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=CLI_ENV,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK" in result.stdout

    def test_check_contracts_script_passes(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_contracts.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=CLI_ENV,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestRuleFixtures:
    """Each rule fires on its seeded violation and passes its clean twin."""

    CASES = {
        "typed-exceptions": "typed_exceptions",
        "determinism": "determinism",
        "obs-clock": "obs_clock/obs",
        "registry-hygiene": "registry_hygiene",
    }

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_rule_fires_on_violation_fixture(self, rule_id):
        findings = run_over([FIXTURES / self.CASES[rule_id] / "bad.py"])
        fired = {finding.rule for finding in findings}
        assert rule_id in fired, f"{rule_id} did not fire on its bad fixture"

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_rule_passes_on_clean_fixture(self, rule_id):
        findings = run_over([FIXTURES / self.CASES[rule_id] / "good.py"])
        fired = [f for f in findings if f.rule == rule_id]
        assert fired == [], "\n".join(f.render() for f in fired)

    def test_obs_clock_fires_on_a_stopwatch_in_an_experiment_module(self):
        # The fixtures live under an "experiments" path segment, which puts
        # them in the rule's scope (as src/repro/experiments/ is).
        bad = run_over([FIXTURES / "obs_clock" / "experiments" / "bad.py"])
        fired = [f for f in bad if f.rule == "obs-clock"]
        assert [f.line for f in fired] == [2, 6, 8]  # the import and both reads
        good = run_over([FIXTURES / "obs_clock" / "experiments" / "good.py"])
        assert [f for f in good if f.rule == "obs-clock"] == []

    def test_obs_clock_ignores_a_stopwatch_outside_its_scope(self, tmp_path):
        victim = tmp_path / "serving.py"
        victim.write_text(
            (FIXTURES / "obs_clock" / "experiments" / "bad.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert [f for f in run_over([victim]) if f.rule == "obs-clock"] == []

    def test_determinism_counts_every_violation_kind(self):
        findings = run_over([FIXTURES / "determinism" / "bad.py"])
        lines = {f.line for f in findings if f.rule == "determinism"}
        # time.time(), unseeded default_rng, np.random.rand, random.random
        assert len(findings) == 4
        assert len(lines) >= 2

    def test_determinism_flags_uninitialised_pool_in_parallel_scope(self):
        # The fixture lives under a "parallel" path segment, which puts it in
        # the rule's parallel scope (as src/repro/parallel/ is).
        findings = run_over([FIXTURES / "determinism" / "parallel" / "bad.py"])
        fired = [f for f in findings if f.rule == "determinism"]
        assert len(fired) == 1
        assert "initializer" in fired[0].message

    def test_determinism_accepts_pool_with_initializer_in_parallel_scope(self):
        findings = run_over([FIXTURES / "determinism" / "parallel" / "good.py"])
        fired = [f for f in findings if f.rule == "determinism"]
        assert fired == [], "\n".join(f.render() for f in fired)

    def test_determinism_ignores_uninitialised_pool_outside_parallel_scope(self, tmp_path):
        # Same code, no "parallel" path segment: the pool-initializer clause
        # must not fire outside the parallel modules.
        victim = tmp_path / "serving.py"
        victim.write_text(
            (FIXTURES / "determinism" / "parallel" / "bad.py").read_text(
                encoding="utf-8"
            ),
            encoding="utf-8",
        )
        assert [f for f in run_over([victim]) if f.rule == "determinism"] == []


class TestNoExemptionMechanism:
    def test_allow_comment_does_not_silence_its_finding(self):
        # A "repro: allow-<rule>" comment is an ordinary comment.
        findings = run_over([FIXTURES / "suppressed.py"])
        assert [(f.line, f.rule) for f in findings] == [(6, "typed-exceptions")]

    def test_pep562_exemption_covers_only_attribute_error_in_module_getattr(self, tmp_path):
        victim = tmp_path / "lazy.py"
        victim.write_text(
            "def __getattr__(name):\n"
            "    if name.startswith('_'):\n"
            "        raise AttributeError(name)\n"  # 3: exempt
            "    if name == 'bad':\n"
            "        raise ValueError(name)\n"  # 5: fires
            "    def nested():\n"
            "        raise AttributeError(name)\n"  # 7: fires, another scope
            "    raise AttributeError(f'no attribute {name!r}')\n"  # 8: exempt
            "\n"
            "def lookup(name):\n"
            "    raise AttributeError(name)\n"  # 11: fires
            "\n"
            "class Proxy:\n"
            "    def __getattr__(self, name):\n"
            "        raise AttributeError(name)\n",  # 15: fires, a method
            encoding="utf-8",
        )
        findings = run_over([victim])
        assert [(f.line, f.rule) for f in findings] == [
            (line, "typed-exceptions") for line in (5, 7, 11, 15)
        ]


class TestRobustnessAndReporting:
    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        shutil.copyfile(FIXTURES / "broken_syntax.txt", broken)
        findings = run_over([broken])
        assert [f.rule for f in findings] == ["syntax-error"]
        assert findings[0].line >= 1
        assert "parse" in findings[0].message

    def test_findings_are_sorted_and_deterministic(self):
        first = run_over([FIXTURES / "typed_exceptions" / "bad.py"])
        second = run_over([FIXTURES / "typed_exceptions" / "bad.py"])
        assert first == second
        lines = [f.line for f in first]
        assert lines == sorted(lines)

    def test_cli_fails_on_violations(self):
        bad = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(FIXTURES / "typed_exceptions" / "bad.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=CLI_ENV,
        )
        assert bad.returncode == 1
        assert "[typed-exceptions]" in bad.stdout

    def test_cli_rejects_unknown_paths(self):
        missing = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "no/such/dir"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=CLI_ENV,
        )
        assert missing.returncode == 2


class TestCheckAll:
    def test_consolidated_gate_passes(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_all.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=CLI_ENV,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "all gates passed" in result.stdout
