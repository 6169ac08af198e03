"""Tests for the chaos scenario DSL: schema validation with file:line
pointers, compilation to first-class ``Scenario`` objects, grammar
integration (``@N`` / ``~jNus`` / ``a+b`` over file components), the
example corpus' determinism under the COW store and the deepcopy
oracle, the
generated schema doc's freshness, and the CLI surface
(``repro chaos validate|schema``, ``repro sweep --scenarios f.yaml``).
"""

import json
import os
from pathlib import Path

import pytest

from _oracles import deepcopy_stores

from repro.chaos import (
    SCHEMA_ID,
    ScenarioFileError,
    load_scenario_file,
    schema_markdown,
    sniff_scenario_file,
    validate_document,
    validate_file,
)
from repro.sweep import (
    SweepCell,
    canonical_scenario_name,
    get_scenario,
    run_cell,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted(
    p.relative_to(REPO_ROOT).as_posix()
    for p in (REPO_ROOT / "examples").glob("*.yaml")
)


@pytest.fixture(autouse=True)
def _from_repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


# ----------------------------------------------------------------------
# the example corpus
# ----------------------------------------------------------------------
class TestExampleCorpus:
    def test_corpus_is_nonempty(self):
        assert len(EXAMPLES) >= 5

    @pytest.mark.parametrize("path", EXAMPLES)
    def test_validates_and_compiles(self, path):
        assert sniff_scenario_file(path)
        assert validate_file(path) == []
        scenario = load_scenario_file(path)
        graph = scenario.topology(1)
        schedule = scenario.schedule(graph, 1)
        assert schedule.events

    @pytest.mark.parametrize("path", EXAMPLES)
    def test_runs_identically_under_both_snapshot_strategies(self, path):
        scenario = load_scenario_file(path)
        mode = "defined" if "defined" in scenario.modes else scenario.modes[0]
        cow = run_cell(SweepCell(path, 1, mode))
        with deepcopy_stores():
            deep = run_cell(SweepCell(path, 1, mode))
        assert cow.error is None, cow.error
        assert deep.error is None, deep.error
        assert cow.fingerprint == deep.fingerprint
        assert cow.expected_ok is not False
        if mode == "defined":
            assert cow.invariant_ok is True  # Theorem 1 under the faults

    def test_same_file_and_seed_reproduce_bit_for_bit(self):
        path = "examples/dup_reorder_soak.yaml"
        a = run_cell(SweepCell(path, 3, "defined"))
        b = run_cell(SweepCell(path, 3, "defined"))
        assert a.error is None and a.fingerprint == b.fingerprint

    def test_jitter_seed_cannot_split_a_defined_cell(self):
        # the seed-invariance probe (--repeats) over a DSL scenario:
        # fault configuration is workload, fault draws are network
        path = "examples/clock_skew_storm.yaml"
        base = run_cell(SweepCell(path, 1, "defined"))
        probe = run_cell(SweepCell(path, 1, "defined", jitter_seed=99))
        assert base.fingerprint == probe.fingerprint


# ----------------------------------------------------------------------
# grammar integration
# ----------------------------------------------------------------------
class TestGrammar:
    def test_file_scenario_takes_its_declared_name(self):
        scenario = get_scenario("examples/clock_skew_storm.yaml")
        assert scenario.name == "skew-storm"
        assert scenario.tuning is not None

    def test_canonical_name_passes_paths_through(self):
        # file paths are not registry names: the canonical spelling keeps
        # the path (resolution happens at get_scenario time), suffixes
        # and all
        spec = "examples/clock_skew_storm.yaml~j1us"
        assert canonical_scenario_name(spec) == spec

    def test_size_suffix_rebases_the_file_scenario(self):
        scenario = get_scenario("examples/clock_skew_storm.yaml@20")
        assert scenario.name == "skew-storm@20"
        graph = scenario.topology(1)
        assert len(graph.nodes) == 20

    def test_file_components_compose_with_registry_components(self):
        scenario = get_scenario("examples/clock_skew_storm.yaml+partition")
        assert scenario.name == "skew-storm+partition"
        assert scenario.tuning is not None
        graph = scenario.topology(1)
        tuning = scenario.tuning(graph, 1)
        assert tuning.clock_skew_us  # the file component's skew survives

    def test_diamond_file_scenarios_refuse_to_size(self):
        with pytest.raises(ValueError):
            get_scenario("examples/gray_failure.yaml@20")


# ----------------------------------------------------------------------
# malformed documents: errors with file:line pointers
# ----------------------------------------------------------------------
class TestMalformedFiles:
    def _write(self, tmp_path, text, name="bad.yaml"):
        target = tmp_path / name
        target.write_text(text)
        return str(target)

    def test_schema_violation_reports_line_and_pointer(self, tmp_path):
        path = self._write(
            tmp_path,
            "schema: chaos/v1\n"
            "name: Bad_Name\n"
            "topology:\n"
            "  family: diamond\n"
            "events:\n"
            "  - kind: flap_storm\n"
            "    flaps: 1\n",
        )
        issues = validate_file(path)
        assert len(issues) == 1
        issue = issues[0]
        assert issue.line == 2 and issue.col == 1
        assert "/name" in issue.message

    def test_load_raises_with_file_line_col_rendering(self, tmp_path):
        path = self._write(
            tmp_path,
            "schema: chaos/v1\n"
            "name: x\n"
            "topology:\n"
            "  family: waxman\n",  # waxman requires nodes
        )
        with pytest.raises(ScenarioFileError) as exc:
            load_scenario_file(path)
        rendered = str(exc.value)
        assert f"{path}:" in rendered
        # every rendered issue carries a line:col position
        assert any(part.isdigit() for part in rendered.split(":"))

    def test_unparseable_yaml_is_an_issue_not_a_crash(self, tmp_path):
        path = self._write(tmp_path, "schema: chaos/v1\nname: [unclosed\n")
        issues = validate_file(path)
        assert issues and issues[0].line > 0

    def test_unknown_keys_are_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            "schema: chaos/v1\n"
            "name: x\n"
            "topology:\n"
            "  family: diamond\n"
            "  frobnicate: 3\n"
            "events:\n"
            "  - kind: flap_storm\n"
            "    flaps: 1\n",
        )
        issues = validate_file(path)
        assert any("frobnicate" in i.message for i in issues)

    def test_gray_plus_instrumented_modes_is_a_schema_error(self):
        doc = {
            "schema": SCHEMA_ID,
            "name": "bad-gray",
            "topology": {"family": "diamond"},
            "modes": ["defined"],
            "faults": [{"kind": "gray", "loss": 0.1}],
        }
        issues = validate_document(doc)
        assert any("gray" in i.message for i in issues)

    def test_json_documents_are_first_class(self, tmp_path):
        doc = {
            "schema": SCHEMA_ID,
            "name": "json-minimal",
            "topology": {"family": "diamond"},
            "events": [{"kind": "flap_storm", "flaps": 1}],
        }
        path = self._write(tmp_path, json.dumps(doc, indent=1), "min.json")
        assert sniff_scenario_file(path)
        assert validate_file(path) == []
        assert load_scenario_file(path).name == "json-minimal"

    def test_non_chaos_yaml_is_not_sniffed(self, tmp_path):
        path = self._write(tmp_path, "jobs:\n  build:\n    steps: []\n")
        assert not sniff_scenario_file(path)


# ----------------------------------------------------------------------
# docs and lint coverage
# ----------------------------------------------------------------------
class TestDocs:
    def test_schema_doc_is_fresh(self):
        """CI regenerates docs/scenario-schema.md; a schema change must
        land together with the regenerated doc."""
        committed = (REPO_ROOT / "docs" / "scenario-schema.md").read_text()
        assert committed == schema_markdown()

    def test_authoring_guide_covers_every_builtin(self):
        from repro.sweep import scenario_names

        guide = (REPO_ROOT / "docs" / "scenario-authoring.md").read_text()
        for name in scenario_names():
            assert name in guide, f"authoring guide missing builtin {name}"

    def test_readme_links_the_docs_tree(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for doc in (
            "docs/architecture.md",
            "docs/scenario-authoring.md",
            "docs/scenario-schema.md",
        ):
            assert doc in readme


class TestLintCoverage:
    def test_examples_lint_clean(self):
        from repro.lint import run_lint

        result = run_lint(["examples"], root=str(REPO_ROOT))
        assert result.active == []
        # the scenario files were actually checked, not skipped
        assert result.checked_files >= len(EXAMPLES)

    def test_schema_violations_fire_chs301(self, tmp_path):
        from repro.lint import run_lint

        bad = tmp_path / "scenario.yaml"
        bad.write_text(
            "schema: chaos/v1\nname: Nope\ntopology:\n  family: diamond\n"
        )
        result = run_lint([str(bad)], root=str(tmp_path))
        assert {f.rule for f in result.active} == {"CHS301"}
        assert all(f.hint for f in result.active)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def _run(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_chaos_validate_accepts_the_corpus(self, capsys):
        code, out = self._run(["chaos", "validate"] + EXAMPLES, capsys)
        assert code == 0
        for path in EXAMPLES:
            assert f"{path}: OK" in out

    def test_chaos_validate_rejects_with_positions(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema: chaos/v1\nname: Bad_Name\n")
        code, out = self._run(["chaos", "validate", str(bad)], capsys)
        assert code == 1
        assert f"{bad}:2:1:" in out

    def test_chaos_schema_markdown_matches_generator(self, capsys):
        code, out = self._run(["chaos", "schema", "--markdown"], capsys)
        assert code == 0
        assert out == schema_markdown()

    def test_sweep_scenario_file(self, capsys):
        code, out = self._run(
            [
                "sweep",
                "--scenarios", "examples/gray_failure.yaml",
                "--seeds", "1",
                "--modes", "vanilla",
            ],
            capsys,
        )
        assert code == 0
        assert "gray_failure.yaml" in out
