"""The static-analysis pass: framework, checkers, fixtures, CLI contract.

Three layers of assertions:

* the fixture corpus (``tests/data/lint_fixtures/``) pins every rule to
  exact (rule, file, line) findings, with a clean mirror package that
  must produce none;
* the merged tree itself is lint-clean — ``src/repro`` with the empty
  baseline is the gate CI enforces;
* the CLI honours the documented exit-code contract (0 clean /
  1 findings / 2 usage or crash) and the baseline machinery suppresses
  without hiding.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools import Baseline, BaselineError, LintRunner, load_project
from repro.devtools.checkers import all_checkers
from repro.devtools.checkers.global_state import GlobalStateChecker
from repro.devtools.findings import Finding
from repro.devtools.lint import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.devtools.project import LintUsageError

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "data" / "lint_fixtures"
VIOLATIONS = FIXTURES / "violations"
CLEAN = FIXTURES / "clean"

#: Every finding the violation corpus must produce — exactly these,
#: nothing else.  Paths are relative to ``lint_fixtures/``; line numbers
#: are pinned to the committed fixture sources.
EXPECTED_VIOLATIONS = {
    ("RPR001", "violations/lintfix/eager_numpy.py", 1),
    ("RPR001", "violations/lintseam/engine/impl.py", 1),
    ("RPR001", "violations/lintfix/sweep/__main__.py", 3),
    ("RPR002", "violations/lintfix/engine/dispatch.py", 10),
    ("RPR002", "violations/lintfix/engine/dispatch.py", 14),
    ("RPR002", "violations/lintfix/engine/dispatch.py", 18),
    ("RPR003", "violations/lintfix/sweep/journal.py", 5),
    ("RPR003", "violations/lintfix/sweep/journal.py", 10),
    ("RPR004", "violations/lintfix/engine/facade.py", 10),
    ("RPR004", "violations/lintfix/engine/facade.py", 13),
    ("RPR004", "violations/lintfix/engine/facade.py", 15),
    ("RPR004", "violations/lintfix/engine/facade.py", 20),
    ("RPR006", "violations/lintfix/records.py", 12),
    ("RPR006", "violations/lintfix/records.py", 17),
    ("RPR007", "violations/lintfix/ledger_fmt.py", 3),
    ("RPR007", "violations/lintfix/loader_fmt.py", 11),
}

#: RPR005 (the warn-once fallback registry) was retired with the kernel
#: fallback warnings it checked; rule ids are never reused.
ALL_RULES = ("RPR001", "RPR002", "RPR003", "RPR004", "RPR006", "RPR007")


def run_lint(*paths, rules=None):
    project = load_project([Path(p) for p in paths])
    return LintRunner(all_checkers()).select(rules).run(project)


def corpus_key(finding):
    tail = finding.path.split("lint_fixtures/")[-1]
    return finding.rule, tail, finding.line


# ---------------------------------------------------------------------------
# Fixture corpus: every rule triggers exactly where seeded, clean mirror
# triggers nowhere.
# ---------------------------------------------------------------------------
class TestFixtureCorpus:
    def test_violations_exact(self):
        findings = run_lint(VIOLATIONS)
        assert {corpus_key(f) for f in findings} == EXPECTED_VIOLATIONS
        assert len(findings) == len(EXPECTED_VIOLATIONS)

    def test_every_rule_has_a_triggering_fixture(self):
        rules = {f.rule for f in run_lint(VIOLATIONS)}
        assert rules == set(ALL_RULES)

    def test_clean_mirror_has_zero_findings(self):
        assert run_lint(CLEAN) == []

    def test_rpr001_seam_resolution_names_the_chain(self):
        [finding] = [f for f in run_lint(VIOLATIONS)
                     if f.rule == "RPR001" and "lintseam" in f.path]
        assert "lintseam -> lintseam.engine.impl -> numpy" in finding.message

    def test_rpr001_entry_point_resolves_the_helper_seam(self):
        """An entry point's eager ``from`` import of a name that a
        helper-bound ``_EXPORTS`` map sends to a deferred module is a
        finding; the clean mirror imports a non-deferred name from the
        same seam and defers the other into its function."""
        [finding] = [f for f in run_lint(VIOLATIONS)
                     if f.rule == "RPR001" and "__main__" in f.path]
        assert finding.message.startswith(
            "'python -m lintfix.sweep' eagerly loads 'lintfix.sram.memory'")
        assert "lintfix.sweep.__main__ -> lintfix.sram.memory" \
            in finding.message

    def test_per_rule_selection(self):
        for rule in ALL_RULES:
            findings = run_lint(VIOLATIONS, rules=[rule])
            assert findings, f"{rule} found nothing in the corpus"
            assert {f.rule for f in findings} == {rule}


# ---------------------------------------------------------------------------
# The merged tree is the ultimate clean fixture: the CI gate must hold
# with the empty baseline, not a suppression list.
# ---------------------------------------------------------------------------
class TestMergedTree:
    def test_src_repro_is_lint_clean(self):
        assert run_lint(REPO_ROOT / "src" / "repro") == []

    def test_committed_baseline_is_empty(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert baseline.keys == ()

    def test_reintroduced_process_global_is_caught(self, tmp_path):
        """A PR-8-style process-global in a scratch copy of the real
        ``engine/dispatch.py`` must be caught by RPR002."""
        source = (REPO_ROOT / "src" / "repro" / "engine"
                  / "dispatch.py").read_text(encoding="utf-8")
        package = tmp_path / "scratch" / "engine"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        copied = package / "dispatch.py"
        copied.write_text(source, encoding="utf-8")
        checker = LintRunner([GlobalStateChecker()])
        assert checker.run(load_project([tmp_path / "scratch"])) == []

        copied.write_text(source + textwrap.dedent("""

            last_backend_used = None


            def _note_backend_used_globally(name):
                global last_backend_used
                last_backend_used = name
        """), encoding="utf-8")
        findings = checker.run(load_project([tmp_path / "scratch"]))
        assert len(findings) == 1
        assert findings[0].rule == "RPR002"
        assert "last_backend_used" in findings[0].message


# ---------------------------------------------------------------------------
# Framework behaviour.
# ---------------------------------------------------------------------------
class TestFramework:
    def test_rule_ids_are_the_catalog(self):
        assert LintRunner(all_checkers()).rule_ids() == list(ALL_RULES)

    def test_select_unknown_rule_is_usage_error(self):
        with pytest.raises(LintUsageError, match="RPR999"):
            LintRunner(all_checkers()).select(["RPR999"])

    def test_missing_path_is_usage_error(self):
        with pytest.raises(LintUsageError, match="does not exist"):
            load_project([Path("definitely-not-here")])

    def test_unparseable_source_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(LintUsageError, match="not valid Python"):
            load_project([bad])

    def test_findings_sort_stably(self):
        findings = run_lint(VIOLATIONS)
        assert findings == sorted(findings)

    def test_finding_render_is_path_line_rule(self):
        finding = Finding(path="a/b.py", line=3, rule="RPR001", message="x")
        assert finding.render() == "a/b.py:3: RPR001 x"


# ---------------------------------------------------------------------------
# Baseline machinery: explicit, validated, suppress-don't-hide.
# ---------------------------------------------------------------------------
class TestBaseline:
    def test_round_trip_suppresses(self, tmp_path):
        findings = run_lint(VIOLATIONS)
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(Baseline.document(findings)))
        gating, suppressed = Baseline.load(path).split(findings)
        assert gating == []
        assert sorted(suppressed) == findings

    def test_empty_baseline_suppresses_nothing(self):
        findings = run_lint(VIOLATIONS)
        gating, suppressed = Baseline.empty().split(findings)
        assert gating == findings
        assert suppressed == []

    def test_line_drift_does_not_invalidate_entries(self):
        finding = Finding(path="p.py", line=10, rule="RPR002", message="m")
        moved = Finding(path="p.py", line=99, rule="RPR002", message="m")
        baseline = Baseline((finding.key(),))
        gating, suppressed = baseline.split([moved])
        assert gating == [] and suppressed == [moved]

    @pytest.mark.parametrize("payload", [
        "not json at all",
        json.dumps({"format": "something-else", "version": 1,
                    "findings": []}),
        json.dumps({"format": "repro-lint-baseline", "version": 99,
                    "findings": []}),
        json.dumps({"format": "repro-lint-baseline", "version": 1}),
        json.dumps({"format": "repro-lint-baseline", "version": 1,
                    "findings": [{"rule": "RPR001"}]}),
    ])
    def test_malformed_baseline_raises(self, tmp_path, payload):
        path = tmp_path / "baseline.json"
        path.write_text(payload)
        with pytest.raises(BaselineError):
            Baseline.load(path)


# ---------------------------------------------------------------------------
# CLI exit-code contract: 0 clean / 1 findings / 2 usage or crash.
# ---------------------------------------------------------------------------
class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([str(CLEAN)]) == EXIT_CLEAN
        assert "clean:" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main([str(VIOLATIONS)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert f"{len(EXPECTED_VIOLATIONS)} finding(s)" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["definitely-not-here"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_rule_exits_two(self, capsys):
        assert main([str(CLEAN), "--rules", "RPR999"]) == EXIT_USAGE
        assert "RPR999" in capsys.readouterr().err

    def test_default_target_is_src_repro(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main([]) == EXIT_CLEAN

    def test_rules_flag_without_ids_lists_catalog(self, capsys):
        assert main(["--rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule in out

    def test_json_report_shape(self, capsys):
        assert main([str(VIOLATIONS), "--format", "json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-lint-report"
        assert payload["rules"] == list(ALL_RULES)
        assert len(payload["findings"]) == len(EXPECTED_VIOLATIONS)
        assert payload["suppressed"] == []

    def test_write_then_apply_baseline(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main([str(VIOLATIONS), "--write-baseline",
                     str(baseline)]) == EXIT_CLEAN
        assert main([str(VIOLATIONS), "--baseline",
                     str(baseline)]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "baseline-suppressed" in out

    def test_malformed_baseline_exits_two(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{}")
        assert main([str(CLEAN), "--baseline",
                     str(baseline)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_output_file_mirrors_stdout(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        main([str(VIOLATIONS), "--format", "json", "--output", str(report)])
        out = capsys.readouterr().out
        assert json.loads(report.read_text()) == json.loads(out)

    def test_rule_restriction(self, capsys):
        assert main([str(VIOLATIONS), "--rules", "RPR006"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RPR006" in out and "RPR002" not in out

    def test_module_execution_end_to_end(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        result = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", str(CLEAN)],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert result.returncode == EXIT_CLEAN, result.stderr
        assert "clean:" in result.stdout
