"""Audit driver behavior: suppressions, parse errors, config, ordering."""

import textwrap

import pytest

from repro.audit import AUDIT, audit_files, audit_paths
from repro.audit.model import AuditFile

from repro.lint.diagnostics import Severity

SLEEPY = """
import time

async def handler():
    time.sleep(0.1)
"""


def file_of(source, path="x.py"):
    return AuditFile(path, textwrap.dedent(source))


class TestRegistry:
    def test_at_least_ten_distinct_passes(self):
        assert len({spec.code for spec in AUDIT.passes}) >= 10

    def test_codes_are_contiguous_rl3xx(self):
        assert AUDIT.codes() == tuple(
            f"RL{n}" for n in range(300, 315)
        )

    def test_names_cover_every_code(self):
        names = AUDIT.names()
        assert set(names) == set(AUDIT.codes())
        assert names["RL300"] == "lock-order-cycle"
        assert names["RL313"] == "unparsable-file"


class TestSuppressions:
    def test_justified_same_line_suppresses(self):
        rep = audit_files(
            [
                file_of(
                    """
                    import time

                    async def handler():
                        time.sleep(0.1)  # audit: ok[RL303] test stub loop
                    """
                )
            ]
        )
        assert not list(rep)

    def test_justified_line_above_suppresses(self):
        rep = audit_files(
            [
                file_of(
                    """
                    import time

                    async def handler():
                        # audit: ok[RL303] test stub loop
                        time.sleep(0.1)
                    """
                )
            ]
        )
        assert not list(rep)

    def test_bare_marker_does_not_suppress_and_is_flagged(self):
        rep = audit_files(
            [
                file_of(
                    """
                    import time

                    async def handler():
                        time.sleep(0.1)  # audit: ok[RL303]
                    """
                )
            ]
        )
        found = [d.code for d in rep]
        assert "RL303" in found
        assert "RL314" in found

    def test_wrong_code_does_not_suppress(self):
        rep = audit_files(
            [
                file_of(
                    """
                    import time

                    async def handler():
                        time.sleep(0.1)  # audit: ok[RL305] not the code
                    """
                )
            ]
        )
        assert "RL303" in [d.code for d in rep]

    def test_multiple_codes_in_one_marker(self):
        rep = audit_files(
            [
                file_of(
                    """
                    import sqlite3

                    async def handler():
                        # audit: ok[RL304,RL305] bootstrap runs pre-loop
                        sqlite3.connect("x").execute("SELECT 1")
                    """
                )
            ]
        )
        assert not [d for d in rep if d.code in ("RL304", "RL305")]


class TestParseErrors:
    def test_syntax_error_becomes_rl313(self):
        rep = audit_files([AuditFile("bad.py", "def broken(:\n")])
        (finding,) = list(rep)
        assert finding.code == "RL313"
        assert finding.severity is Severity.ERROR
        assert finding.file == "bad.py"
        assert rep.exit_code() == 1

    def test_other_files_still_audited(self):
        rep = audit_files(
            [AuditFile("bad.py", "def broken(:\n"), file_of(SLEEPY, "ok.py")]
        )
        assert {d.code for d in rep} == {"RL303", "RL313"}


class TestConfig:
    def test_disabled_code_dropped(self):
        rep = audit_files(
            [file_of(SLEEPY)],
            disabled=frozenset({"RL303"}),
        )
        assert not list(rep)

    def test_disabled_codes_are_checked(self):
        broken = AuditFile("bad.py", "def broken(:\n")
        with pytest.raises(ValueError, match="RL313 cannot be disabled"):
            audit_files([broken], disabled=frozenset({"RL313"}))
        with pytest.raises(ValueError, match="no diagnostic code 'RL999'"):
            audit_files([broken], disabled=frozenset({"RL999"}))


class TestMultiFileReports:
    def test_diagnostics_sorted_by_file_then_position(self):
        rep = audit_files(
            [file_of(SLEEPY, "zz.py"), file_of(SLEEPY, "aa.py")]
        )
        assert [d.file for d in rep] == ["aa.py", "zz.py"]

    def test_audit_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(textwrap.dedent(SLEEPY))
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = (")
        rep = audit_paths([tmp_path])
        assert [d.code for d in rep] == ["RL303"]
        assert list(rep)[0].file.endswith("mod.py")
