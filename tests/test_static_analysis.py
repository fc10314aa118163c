"""The contract-linter gate (tier-1) and the rule engine's own tests.

Two jobs, same pattern as ``tests/test_docs.py`` driving ``check_docs``:

* the gate — ``repro.analysis`` must run clean over the whole ``src/repro``
  tree with the committed allowlist, with zero inline suppression comments,
  so every contract the linter encodes (typed exceptions, determinism, the
  observability clock, registry hygiene) stays enforced forever;
* the engine — each rule is proven to fire on a seeded violation fixture and
  stay quiet on the matching clean fixture, and the machinery around the
  rules (suppression comments, allowlist handling, syntax-error reporting,
  JSON schema) is pinned.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    ALLOWLIST_FILENAME,
    Allowlist,
    REPORT_FORMAT,
    all_rules,
    render_json,
    run_analysis,
    rules_by_id,
)

pytestmark = pytest.mark.static_analysis

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "contracts"
CLI_ENV = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}


def run_over(paths, **kwargs):
    return run_analysis([Path(p) for p in paths], **kwargs)


class TestTier1Gate:
    def test_source_tree_passes_with_committed_allowlist(self):
        allowlist = Allowlist.load(REPO_ROOT / ALLOWLIST_FILENAME)
        result = run_over([SRC_TREE], allowlist=allowlist)
        assert result.findings == [], "\n".join(f.render() for f in result.findings)
        assert result.unused_allowlist_entries == ()

    def test_source_tree_has_no_inline_suppressions(self):
        # Deliberate exceptions belong in contracts_allowlist.txt, where they
        # are reviewed and rot-checked — never silenced in place.
        result = run_over([SRC_TREE], allowlist=Allowlist.empty())
        assert result.suppression_comments == []

    def test_every_allowlist_entry_names_a_known_rule(self):
        known = set(rules_by_id())
        allowlist = Allowlist.load(REPO_ROOT / ALLOWLIST_FILENAME)
        assert allowlist.entries, "committed allowlist should not be empty"
        for entry in allowlist.entries:
            assert entry.rule in known, f"unknown rule id in allowlist: {entry.rule}"

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
        result = run_over([FIXTURES / self.CASES[rule_id] / "bad.py"])
        fired = {finding.rule for finding in result.findings}
        assert rule_id in fired, f"{rule_id} did not fire on its bad fixture"

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_rule_passes_on_clean_fixture(self, rule_id):
        result = run_over([FIXTURES / self.CASES[rule_id] / "good.py"])
        fired = [f for f in result.findings if f.rule == rule_id]
        assert fired == [], "\n".join(f.render() for f in fired)

    def test_determinism_counts_every_violation_kind(self):
        result = run_over([FIXTURES / "determinism" / "bad.py"])
        lines = {f.line for f in result.findings if f.rule == "determinism"}
        # time.time(), unseeded default_rng, np.random.rand, random.random
        assert len(result.findings) == 4
        assert len(lines) >= 2

    def test_determinism_flags_uninitialised_pool_in_parallel_scope(self):
        # The fixture lives under a "parallel" path segment, which puts it in
        # the rule's parallel scope (as src/repro/parallel/ is).
        result = run_over([FIXTURES / "determinism" / "parallel" / "bad.py"])
        fired = [f for f in result.findings if f.rule == "determinism"]
        assert len(fired) == 1
        assert "initializer" in fired[0].message

    def test_determinism_accepts_pool_with_initializer_in_parallel_scope(self):
        result = run_over([FIXTURES / "determinism" / "parallel" / "good.py"])
        fired = [f for f in result.findings if f.rule == "determinism"]
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
        result = run_over([victim])
        assert [f for f in result.findings if f.rule == "determinism"] == []


class TestSuppressionAndAllowlist:
    def test_inline_suppression_comment_silences_the_finding(self):
        result = run_over([FIXTURES / "suppressed.py"])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["typed-exceptions"]
        assert [c.rule for c in result.suppression_comments] == ["typed-exceptions"]

    def test_marker_inside_a_string_is_not_a_suppression(self, tmp_path):
        victim = tmp_path / "strings.py"
        victim.write_text(
            'MARKER = "repro: allow-typed-exceptions"\n'
            'def fail():\n'
            '    raise ValueError(MARKER)\n',
            encoding="utf-8",
        )
        result = run_over([victim])
        assert [f.rule for f in result.findings] == ["typed-exceptions"]
        assert result.suppression_comments == []

    def test_allowlist_entry_covers_matching_finding(self, tmp_path):
        allowfile = tmp_path / ALLOWLIST_FILENAME
        allowfile.write_text(
            "# reviewed\ntyped-exceptions */typed_exceptions/bad.py\n", encoding="utf-8"
        )
        result = run_over(
            [FIXTURES / "typed_exceptions" / "bad.py"],
            allowlist=Allowlist.load(allowfile),
        )
        assert result.findings == []
        assert [f.rule for f in result.allowlisted] == ["typed-exceptions"] * 3
        assert result.unused_allowlist_entries == ()
        assert result.ok

    def test_allowlist_does_not_cover_other_rules(self, tmp_path):
        allowfile = tmp_path / ALLOWLIST_FILENAME
        allowfile.write_text(
            "determinism */typed_exceptions/bad.py\n", encoding="utf-8"
        )
        result = run_over(
            [FIXTURES / "typed_exceptions" / "bad.py"],
            allowlist=Allowlist.load(allowfile),
        )
        assert [f.rule for f in result.findings] == ["typed-exceptions"] * 3
        assert len(result.unused_allowlist_entries) == 1
        assert not result.ok

    def test_unused_allowlist_entries_fail_the_run(self, tmp_path):
        allowfile = tmp_path / ALLOWLIST_FILENAME
        allowfile.write_text("typed-exceptions no/such/file.py\n", encoding="utf-8")
        result = run_over(
            [FIXTURES / "typed_exceptions" / "good.py"],
            allowlist=Allowlist.load(allowfile),
        )
        assert result.findings == []
        assert len(result.unused_allowlist_entries) == 1
        assert not result.ok


class TestRobustnessAndReporting:
    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        shutil.copyfile(FIXTURES / "broken_syntax.txt", broken)
        result = run_over([broken])
        assert [f.rule for f in result.findings] == ["syntax-error"]
        finding = result.findings[0]
        assert finding.line >= 1
        assert "parse" in finding.message

    def test_json_report_schema_is_stable(self, tmp_path):
        allowfile = tmp_path / ALLOWLIST_FILENAME
        allowfile.write_text(
            "typed-exceptions */typed_exceptions/bad.py\n", encoding="utf-8"
        )
        result = run_over(
            [FIXTURES / "typed_exceptions" / "bad.py",
             FIXTURES / "determinism" / "bad.py"],
            allowlist=Allowlist.load(allowfile),
        )
        payload = json.loads(render_json(result))
        assert payload["format"] == REPORT_FORMAT
        assert set(payload) == {
            "format",
            "root",
            "checked_files",
            "rules",
            "findings",
            "suppressed",
            "allowlisted",
            "unused_allowlist_entries",
        }
        assert payload["checked_files"] == 2
        assert payload["rules"] == [rule.rule_id for rule in all_rules()]
        for finding in payload["findings"] + payload["allowlisted"]:
            assert set(finding) == {"rule", "file", "line", "message", "anchor"}
            assert isinstance(finding["line"], int)
        assert len(payload["allowlisted"]) == 3

    def test_findings_are_sorted_and_deterministic(self):
        first = run_over([FIXTURES / "typed_exceptions" / "bad.py"])
        second = run_over([FIXTURES / "typed_exceptions" / "bad.py"])
        assert [f.to_dict() for f in first.findings] == [
            f.to_dict() for f in second.findings
        ]
        lines = [f.line for f in first.findings]
        assert lines == sorted(lines)

    def test_cli_fails_on_violations_and_lists_rules(self):
        bad = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis",
                "--no-allowlist",
                str(FIXTURES / "typed_exceptions" / "bad.py"),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=CLI_ENV,
        )
        assert bad.returncode == 1
        assert "[typed-exceptions]" in bad.stdout

        listing = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=CLI_ENV,
        )
        assert listing.returncode == 0
        for rule in all_rules():
            assert rule.rule_id in listing.stdout

    def test_cli_rejects_unknown_paths_and_rules(self):
        missing = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "no/such/dir"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=CLI_ENV,
        )
        assert missing.returncode == 2
        unknown = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--rule", "no-such-rule", "src/repro"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=CLI_ENV,
        )
        assert unknown.returncode == 2


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
