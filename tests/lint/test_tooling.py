"""Gated ruff/mypy checks over the lint subsystem.

The container may not ship either tool; the checks skip cleanly when
the module is absent and enforce the pyproject configuration when it
is installed.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: What ruff checks, here and in CI's ruff step (the lists must agree).
RUFF_PATHS = [
    "src/repro/lint",
    "src/repro/checkers",
    "src/repro/audit",
    "src/repro/lang/spans.py",
    "src/repro/data/saturate.py",
]


def _has(module: str) -> bool:
    return importlib.util.find_spec(module) is not None


@pytest.mark.skipif(not _has("ruff"), reason="ruff not installed")
def test_ruff_clean_on_lint_subsystem():
    result = subprocess.run(
        [sys.executable, "-m", "ruff", "check", *RUFF_PATHS],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.skipif(not _has("mypy"), reason="mypy not installed")
def test_mypy_strict_on_lint_subsystem():
    result = subprocess.run(
        [sys.executable, "-m", "mypy"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_ruff_scope_matches_ci():
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    (step,) = [
        line.split("ruff check", 1)[1].split()
        for line in ci.splitlines()
        if "-m ruff check" in line
    ]
    assert step == RUFF_PATHS


def test_pyproject_configures_both_tools():
    text = (REPO / "pyproject.toml").read_text()
    assert "[tool.ruff" in text
    assert "[tool.mypy]" in text
    assert "strict = true" in text
