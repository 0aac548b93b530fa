"""The ``repro check`` command: formats, exit codes, seeded example.

The exit-code contract mirrors ``repro lint``: 0 clean (warnings
without ``--strict`` included), 1 findings gated by severity, 2 on
unreadable/malformed input.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SEEDED = str(REPO_ROOT / "examples" / "check_project")

CLEAN_ONTOLOGY = "r1: professor(X) -> person(X).\n"
CLEAN_QUERIES = "q(X) :- person(X).\n"
CLEAN_MAPPINGS = "prof_row(X, D) ~> professor(X).\nperson_row(X) ~> person(X).\n"
CLEAN_DATA = "prof_row(ada, cs).\nperson_row(bob).\n"

WARNING_ONTOLOGY = (
    "r1: professor(X) -> person(X).\n"
    "r2: teaches(X, C) -> course(C).\n"  # dead for the workload
)
ERROR_MAPPINGS = "prof_row(X, D) ~> professor(X, D, D).\n"  # arity clash


@pytest.fixture
def project(tmp_path):
    def _build(
        ontology=CLEAN_ONTOLOGY,
        queries=CLEAN_QUERIES,
        mappings=CLEAN_MAPPINGS,
        data=CLEAN_DATA,
    ):
        manifest = {"ontology": "o.dlp"}
        (tmp_path / "o.dlp").write_text(ontology)
        for key, name, text in (
            ("queries", "q.dlp", queries),
            ("mappings", "m.dlp", mappings),
            ("data", "d.dlp", data),
        ):
            if text is not None:
                (tmp_path / name).write_text(text)
                manifest[key] = name
        (tmp_path / "project.json").write_text(json.dumps(manifest))
        return str(tmp_path)

    return _build


class TestExitCodeMatrix:
    def test_clean_project_exits_zero(self, project, capsys):
        assert main(["check", project()]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_warnings_exit_zero_without_strict(self, project):
        assert main(["check", project(ontology=WARNING_ONTOLOGY)]) == 0

    def test_strict_promotes_warnings(self, project):
        assert main(["check", project(ontology=WARNING_ONTOLOGY), "--strict"]) == 1

    def test_errors_always_nonzero(self, project):
        assert main(["check", project(mappings=ERROR_MAPPINGS)]) == 1

    def test_unreadable_project_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "missing")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_manifest_exits_two(self, tmp_path):
        (tmp_path / "project.json").write_text("{oops")
        assert main(["check", str(tmp_path)]) == 2

    def test_member_parse_error_exits_two(self, tmp_path):
        (tmp_path / "project.json").write_text('{"ontology": "o.dlp"}')
        (tmp_path / "o.dlp").write_text("r1: broken( -> x.\n")
        assert main(["check", str(tmp_path)]) == 2


class TestSeededExample:
    """The in-repo example project must showcase the full catalogue."""

    def test_expected_codes(self, capsys):
        assert main(["check", SEEDED]) == 1  # RL103 is an error
        out = capsys.readouterr().out
        for code in ("RL100", "RL102", "RL103", "RL105", "RL106"):
            assert code in out, f"{code} missing from seeded report"

    def test_dead_rule_named(self, capsys):
        main(["check", SEEDED])
        out = capsys.readouterr().out
        assert "r_dead" in out

    def test_offending_chain_named(self, capsys):
        main(["check", SEEDED])
        out = capsys.readouterr().out
        assert "offending rule chain" in out
        assert "b12 -> d1 -> d2 -> d3 -> d4" in out

    def test_json_format(self, capsys):
        main(["check", SEEDED, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in doc["diagnostics"]}
        assert {"RL100", "RL102", "RL103", "RL105", "RL106"} <= codes

    def test_disable_code(self, capsys):
        main(["check", SEEDED, "--disable", "RL106"])
        assert "RL106" not in capsys.readouterr().out

    def test_disable_rejects_a_lint_code(self, capsys):
        assert main(["check", SEEDED, "--disable", "RL006"]) == 2
        assert "repro-check has no diagnostic code 'RL006'" in (
            capsys.readouterr().err
        )

    def test_budget_flag_silences_blowup(self, capsys):
        main(["check", SEEDED, "--max-cqs", "100000000"])
        assert "RL105" not in capsys.readouterr().out

    def test_assumed_depth_flag_parses(self, capsys):
        assert main(["check", SEEDED, "--assumed-depth", "3"]) == 1


class TestSarifStructure:
    """SARIF 2.1.0 output, structurally valid for code-scanning upload."""

    def sarif(self, capsys, *args):
        main(["check", SEEDED, "--format", "sarif", *args])
        return json.loads(capsys.readouterr().out)

    def test_version_and_schema(self, capsys):
        doc = self.sarif(capsys)
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]

    def test_tool_name_is_check_not_lint(self, capsys):
        doc = self.sarif(capsys)
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro-check"

    def test_rules_catalogue_is_rl1xx(self, capsys):
        doc = self.sarif(capsys)
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        ids = [rule["id"] for rule in rules]
        assert ids == sorted(ids)
        assert all(rule_id.startswith("RL1") for rule_id in ids)
        assert all("name" in rule for rule in rules)

    def test_results_reference_rules_by_index(self, capsys):
        doc = self.sarif(capsys)
        (run,) = doc["runs"]
        ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert run["results"]
        for result in run["results"]:
            assert ids[result["ruleIndex"]] == result["ruleId"]
            assert result["level"] in ("error", "warning", "note")
            assert result["message"]["text"]

    def test_spanned_results_carry_regions(self, capsys):
        doc = self.sarif(capsys)
        located = [
            r for r in doc["runs"][0]["results"] if "locations" in r
        ]
        assert located  # RL100 carries the dead rule's span
        physical = located[0]["locations"][0]["physicalLocation"]
        assert physical["artifactLocation"]["uri"].endswith("ontology.dlp")
        assert physical["region"]["startLine"] >= 1
