"""The RL2xx constraint-interaction passes and their CLI surface."""

import json
from pathlib import Path

import pytest

from repro.checkers import Project, check_project, parse_queries
from repro.cli import main
from repro.lang.parser import parse_program
from repro.lint.diagnostics import Severity
from repro.workloads.interaction import SPLIT_RULES_TEXT, ja_not_wa

REPO_ROOT = Path(__file__).resolve().parents[2]

JA_NOT_WA_TEXT = (
    "C1: s(X) -> r(X, Y).\n"
    "C2: r(X, Y) -> t(Y).\n"
    "C3: t(X), u(X) -> s(X).\n"
)
INSEPARABLE_TEXT = "L: p(X) -> q(X, Y).\nM: q(X, Y) -> p(Y).\n"


def build(ontology, queries=""):
    return Project(
        rules=parse_program(ontology),
        queries=parse_queries(queries),
        mappings=None,
        data=None,
        path="mem.dlp",
        source_text=ontology,
    )


def findings(report, code):
    return [d for d in report.diagnostics if d.code == code]


class TestInteractionPasses:
    def test_weakly_acyclic_project_is_silent(self):
        report = check_project(
            build(
                "r1: professor(X) -> person(X).\n",
                queries="q(X) :- person(X).\n",
            )
        )
        for code in ("RL200", "RL201", "RL202", "RL203"):
            assert not findings(report, code)

    def test_rl200_lattice_admitted(self):
        report = check_project(build(JA_NOT_WA_TEXT))
        (admitted,) = findings(report, "RL200")
        assert admitted.severity is Severity.INFO
        assert "joint-acyclicity" in admitted.message
        assert any("weak-acyclicity witness" in n for n in admitted.notes)
        assert any("special" in n for n in admitted.notes)
        # Rule provenance on the witness edges.
        assert any("via" in n for n in admitted.notes)
        assert admitted.rule in {"C1", "C2", "C3"}
        assert admitted.span is not None
        # Terminating sets never trip the non-terminating passes.
        for code in ("RL201", "RL202", "RL203"):
            assert not findings(report, code)

    def test_rl201_and_rl202_on_separable_set(self):
        report = check_project(build(SPLIT_RULES_TEXT))
        (diverging,) = findings(report, "RL201")
        assert diverging.severity is Severity.WARNING
        assert any("witness" in n for n in diverging.notes)
        assert any(
            "super-weak-acyclicity: fails" in n for n in diverging.notes
        )
        (split,) = findings(report, "RL202")
        assert split.severity is Severity.INFO
        assert "chase-safe core" in split.message
        core_note, residual_note = split.notes[0], split.notes[1]
        assert core_note.startswith("core: ")
        assert {"R1", "R2", "R3"} <= set(core_note[6:].split(", "))
        assert residual_note.startswith("residual: ")
        assert not findings(report, "RL203")

    def test_rl203_on_inseparable_set(self):
        report = check_project(build(INSEPARABLE_TEXT))
        assert findings(report, "RL201")
        (stuck,) = findings(report, "RL203")
        assert stuck.severity is Severity.WARNING
        assert "inseparable" in stuck.message
        assert not findings(report, "RL202")


@pytest.fixture
def project(tmp_path):
    def _build(ontology):
        (tmp_path / "o.dlp").write_text(ontology)
        (tmp_path / "project.json").write_text(
            json.dumps({"ontology": "o.dlp"})
        )
        return str(tmp_path)

    return _build


class TestInteractionCli:
    def test_rl201_is_warning_gated_by_strict(self, project):
        path = project(SPLIT_RULES_TEXT)
        assert main(["check", path]) == 0
        assert main(["check", path, "--strict"]) == 1

    def test_text_output_carries_certificate(self, project, capsys):
        main(["check", project(SPLIT_RULES_TEXT)])
        out = capsys.readouterr().out
        assert "RL201" in out and "RL202" in out
        assert "witness" in out

    def test_json_output(self, project, capsys):
        main(["check", project(JA_NOT_WA_TEXT), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        by_code = {d["code"]: d for d in doc["diagnostics"]}
        assert "RL200" in by_code
        notes = by_code["RL200"]["notes"]
        assert any("weak-acyclicity witness" in n for n in notes)

    def test_sarif_output(self, project, capsys):
        main(
            ["check", project(INSEPARABLE_TEXT), "--format", "sarif"]
        )
        doc = json.loads(capsys.readouterr().out)
        (run,) = doc["runs"]
        ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"RL201", "RL203"} <= ids
        result_ids = {r["ruleId"] for r in run["results"]}
        assert {"RL201", "RL203"} <= result_ids
        for result in run["results"]:
            assert result["level"] in ("error", "warning", "note")

    def test_disable_rl200(self, project, capsys):
        main(["check", project(JA_NOT_WA_TEXT), "--disable", "RL200"])
        assert "RL200" not in capsys.readouterr().out
