"""Tests for ``repro lint``: the fixture corpus, pragma suppression,
CLI exit codes, and the tree-is-clean acceptance gate."""

import json
import os
import re
from pathlib import Path

import pytest

from repro.lint import RULES, run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

_MARKER = re.compile(r"#\s*lint-expect:\s*([A-Z]{3}\d{3})")


def expected_findings():
    """(relpath, rule, line) for every ``# lint-expect:`` marker."""
    expected = set()
    fixture_files = sorted(
        list(FIXTURES.rglob("*.py"))
        + list(FIXTURES.rglob("*.yaml"))
        + list(FIXTURES.rglob("*.json"))
    )
    for path in fixture_files:
        rel = path.relative_to(REPO_ROOT).as_posix()
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            match = _MARKER.search(line)
            if match:
                expected.add((rel, match.group(1), lineno))
    return expected


class TestFixtureCorpus:
    def test_findings_match_markers_exactly(self):
        """Every marked line fires its rule at exactly that line, and
        nothing else in the corpus fires at all."""
        result = run_lint(["tests/lint_fixtures"], root=str(REPO_ROOT))
        found = {(f.path, f.rule, f.line) for f in result.active}
        expected = expected_findings()
        assert found == expected

    def test_each_finding_is_reported_once(self):
        """A loop body is visited with its loop and on its own; a
        mutation inside it must still be one finding."""
        result = run_lint(["tests/lint_fixtures"], root=str(REPO_ROOT))
        keys = [(f.path, f.rule, f.line, f.col) for f in result.active]
        assert len(keys) == len(set(keys))

    def test_every_rule_id_has_a_firing_fixture(self):
        covered = {rule for _, rule, _ in expected_findings()}
        assert covered == set(RULES)

    def test_findings_carry_location_and_hint(self):
        result = run_lint(["tests/lint_fixtures"], root=str(REPO_ROOT))
        for finding in result.active:
            assert finding.line > 0 and finding.col > 0
            assert finding.message
            assert finding.hint

    def test_pragma_fixture_fully_suppressed(self):
        result = run_lint(
            ["tests/lint_fixtures/pragma_ok.py"], root=str(REPO_ROOT)
        )
        assert result.active == []
        suppressed_rules = {f.rule for f in result.pragma_suppressed}
        assert suppressed_rules == {"DET101", "DET103", "DET106"}


class TestPragmas:
    def _lint_source(self, tmp_path, source):
        target = tmp_path / "snippet.py"
        target.write_text(source)
        return run_lint([str(target)], root=str(tmp_path))

    def test_trailing_pragma_suppresses_only_named_rule(self, tmp_path):
        result = self._lint_source(
            tmp_path,
            "import random\n"
            "x = random.random()  # repro-lint: disable=DET102(wrong rule)\n",
        )
        assert [f.rule for f in result.active] == ["DET101"]
        assert result.pragma_suppressed == []

    def test_standalone_pragma_applies_to_next_code_line(self, tmp_path):
        result = self._lint_source(
            tmp_path,
            "import random\n"
            "# repro-lint: disable=DET101(reasoned)\n"
            "x = random.random()\n",
        )
        assert result.active == []
        assert [f.rule for f in result.pragma_suppressed] == ["DET101"]

    def test_pragma_reason_is_optional(self, tmp_path):
        result = self._lint_source(
            tmp_path,
            "import random\n"
            "x = random.random()  # repro-lint: disable=DET101\n",
        )
        assert result.active == []


class TestCli:
    def _run(self, argv, cwd, capsys):
        from repro.cli import main

        old = os.getcwd()
        os.chdir(cwd)
        try:
            code = main(["lint"] + argv)
        finally:
            os.chdir(old)
        return code, capsys.readouterr().out

    def test_exit_zero_on_clean_tree(self, capsys):
        code, out = self._run(["src/repro"], REPO_ROOT, capsys)
        assert code == 0, out
        assert "0 finding(s)" in out

    def test_exit_one_on_findings_and_json_report(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\nrandom.random()\n")
        code, out = self._run(["--json", "bad.py"], tmp_path, capsys)
        assert code == 1
        report = json.loads(out)
        assert report["findings"][0]["rule"] == "DET101"
        assert report["checked_files"] == 1

    def test_json_report_keys(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code, out = self._run(["--json", "ok.py"], tmp_path, capsys)
        assert code == 0
        assert set(json.loads(out)) == {"findings", "suppressed", "checked_files"}

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        code, _ = self._run(["no/such/dir"], tmp_path, capsys)
        assert code == 2

class TestAcceptance:
    def test_src_tree_lints_clean(self):
        """The gate: no findings in the tree."""
        result = run_lint(["src/repro"], root=str(REPO_ROOT))
        assert result.active == []

    def test_readme_documents_every_rule(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "Determinism contract" in readme
        for rule in RULES:
            assert rule in readme, f"README missing rule {rule}"

    def test_rule_table_is_complete(self):
        assert len(RULES) >= 8
        for rule, doc in RULES.items():
            assert re.fullmatch(r"(DET1|STO2|CHS3)\d{2}", rule)
            assert doc


@pytest.mark.parametrize("spec", ["a@", "@40", "(a+b@40"])
def test_malformed_specs_do_not_crash_linter_helpers(spec):
    # unrelated grammar strings must not confuse the pragma regexes
    from repro.lint.suppress import pragma_lines

    assert pragma_lines([f"# {spec}"]) == {}
