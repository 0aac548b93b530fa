"""`repro audit` CLI: exit codes and the shared rendering formats."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

SLEEPY = textwrap.dedent(
    """
    import time

    async def handler():
        time.sleep(0.1)
    """
)

CLEAN = "def add(a, b):\n    return a + b\n"


@pytest.fixture
def sleepy_file(tmp_path):
    path = tmp_path / "sleepy.py"
    path.write_text(SLEEPY)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN)
    return str(path)


class TestExitCodes:
    def test_clean_file_exits_zero(self, clean_file, capsys):
        assert main(["audit", clean_file]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_warnings_exit_zero_without_strict(self, sleepy_file, capsys):
        assert main(["audit", sleepy_file]) == 0
        assert "RL303" in capsys.readouterr().out

    def test_warnings_exit_one_with_strict(self, sleepy_file):
        assert main(["audit", "--strict", sleepy_file]) == 1

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exits_one(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        assert main(["audit", str(path)]) == 1

    def test_disable_flag(self, sleepy_file):
        assert (
            main(["audit", "--strict", "--disable", "RL303", sleepy_file])
            == 0
        )

    def test_disable_refuses_the_unparsable_file_code(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        assert main(["audit", "--disable", "RL313", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "no findings" not in captured.out
        assert "RL313 cannot be disabled" in captured.err


class TestTextFormat:
    def test_location_names_the_finding_file(self, sleepy_file, capsys):
        main(["audit", sleepy_file])
        out = capsys.readouterr().out
        assert f"{sleepy_file}:5:" in out
        assert "warning[RL303]:" in out


class TestJsonFormat:
    def test_diagnostics_carry_file(self, sleepy_file, capsys):
        main(["audit", "--format", "json", sleepy_file])
        doc = json.loads(capsys.readouterr().out)
        (diagnostic,) = doc["diagnostics"]
        assert diagnostic["code"] == "RL303"
        assert diagnostic["file"] == sleepy_file


class TestSarifFormat:
    def sarif(self, capsys, *argv):
        main(["audit", "--format", "sarif", *argv])
        return json.loads(capsys.readouterr().out)

    def test_skeleton_and_tool_name(self, sleepy_file, capsys):
        doc = self.sarif(capsys, sleepy_file)
        assert doc["version"] == "2.1.0"
        assert "$schema" in doc
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro-audit"

    def test_rules_use_audit_names(self, sleepy_file, capsys):
        doc = self.sarif(capsys, sleepy_file)
        (rule,) = doc["runs"][0]["tool"]["driver"]["rules"]
        assert rule["id"] == "RL303"
        assert rule["name"] == "sleep-in-async"

    def test_rule_index_consistent(self, sleepy_file, capsys):
        doc = self.sarif(capsys, sleepy_file)
        (run,) = doc["runs"]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        for result in run["results"]:
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]

    def test_artifact_location_is_finding_file(self, sleepy_file, capsys):
        doc = self.sarif(capsys, sleepy_file)
        (result,) = doc["runs"][0]["results"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == sleepy_file
        assert location["region"]["startLine"] == 5

    def test_levels_mapped(self, sleepy_file, capsys):
        doc = self.sarif(capsys, sleepy_file)
        levels = {r["level"] for r in doc["runs"][0]["results"]}
        assert levels == {"warning"}


class TestDogfood:
    def test_own_source_tree_is_strict_clean(self):
        # The CI gate: the analyzer holds over the project's own code
        # (every remaining finding is a justified inline suppression).
        assert main(["audit", "--strict", str(REPO_SRC)]) == 0
