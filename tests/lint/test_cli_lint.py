"""The ``repro lint`` command and the lint preflight wiring."""

import json

import pytest

from repro.cli import main

CLEAN = "R1: a(X) -> b(X).\nR2: b(X) -> c(X).\n"
NOT_SIMPLE = "R1: s(X, X) -> r(X).\n"
NOT_WR = """
R1: t(Y1, Y2), r(Y3, Y4) -> s(Y1, Y3, Y2).
R2: s(Y1, Y1, Y2) -> r(Y2, Y3).
"""
ARITY_CLASH = "R1: a(X) -> b(X).\nR2: b(X, Y) -> c(X).\n"


@pytest.fixture
def write(tmp_path):
    def _write(text, name="prog.dlp"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


class TestLintCommand:
    def test_clean_program_exit_zero(self, write, capsys):
        assert main(["lint", write(CLEAN)]) == 0
        assert "info" in capsys.readouterr().out  # EDB note for a

    def test_warning_exit_zero_without_strict(self, write):
        assert main(["lint", write(NOT_SIMPLE)]) == 0

    def test_strict_promotes_warnings(self, write):
        assert main(["lint", write(NOT_SIMPLE), "--strict"]) == 1

    def test_error_always_nonzero(self, write):
        assert main(["lint", write(ARITY_CLASH)]) == 1

    def test_text_format_has_spans(self, write, capsys):
        path = write(NOT_SIMPLE)
        main(["lint", path])
        out = capsys.readouterr().out
        assert f"{path}:1:" in out
        assert "warning[RL007]" in out

    def test_json_format(self, write, capsys):
        main(["lint", write(NOT_SIMPLE), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert any(d["code"] == "RL007" for d in doc["diagnostics"])

    def test_sarif_format(self, write, capsys):
        main(["lint", write(NOT_SIMPLE), "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_witness_cycle_in_output(self, write, capsys):
        main(["lint", write(NOT_WR)])
        out = capsys.readouterr().out
        assert "RL011" in out
        assert "d,m,s" in out
        assert "via R1" in out

    def test_query_flag(self, write, capsys):
        main(["lint", write(CLEAN), "--query", "q(X) :- c(X)"])
        assert main(
            ["lint", write(CLEAN), "--query", "q(X) :- c(X, Y)"]
        ) == 1  # arity clash with the program

    def test_no_recursion_skips_graphs(self, write, capsys):
        main(["lint", write(NOT_WR), "--no-recursion"])
        assert "RL011" not in capsys.readouterr().out

    def test_disable_code(self, write, capsys):
        main(["lint", write(NOT_SIMPLE), "--disable", "RL007"])
        assert "RL007" not in capsys.readouterr().out

    def test_disable_rejects_lower_case_code(self, write, capsys):
        assert main(["lint", write(CLEAN), "--disable", "rl006"]) == 2
        captured = capsys.readouterr()
        assert "RL006" not in captured.out
        assert "did you mean RL006?" in captured.err

    def test_disable_rejects_unknown_code(self, write, capsys):
        assert main(["lint", write(CLEAN), "--disable", "RL999"]) == 2
        assert "'RL999'" in capsys.readouterr().err

    def test_disable_rejects_a_check_code(self, write, capsys):
        assert main(["lint", write(CLEAN), "--disable", "RL100"]) == 2
        assert "repro-lint has no diagnostic code 'RL100'" in (
            capsys.readouterr().err
        )

    def test_disable_refuses_the_parse_error_code(self, write, capsys):
        path = write("a(X -> b(X).")
        assert main(["lint", path, "--disable", "RL000"]) == 2
        assert "RL000 cannot be disabled" in capsys.readouterr().err

    def test_parse_error_is_rl000(self, write, capsys):
        code = main(["lint", write("a(X -> b(X).")])
        assert code == 1
        assert "RL000" in capsys.readouterr().out

    def test_stdin(self, write, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(NOT_SIMPLE))
        assert main(["lint", "-", "--strict"]) == 1
        assert "<stdin>:1:" in capsys.readouterr().out


class TestReadErrors:
    def test_missing_file_exit_two(self, capsys):
        code = main(["lint", "/nonexistent/prog.dlp"])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "/nonexistent/prog.dlp" in err

    def test_missing_file_classify(self, capsys):
        assert main(["classify", "/nonexistent/prog.dlp"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unreadable_directory(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestPreflightWiring:
    def test_classify_rejects_arity_clash(self, write, capsys):
        assert main(["classify", write(ARITY_CLASH)]) == 2
        err = capsys.readouterr().err
        assert "RL001" in err

    def test_rewrite_rejects_arity_clash(self, write, capsys):
        code = main(["rewrite", write(ARITY_CLASH), "q(X) :- c(X)"])
        assert code == 2
        assert "RL001" in capsys.readouterr().err

    def test_classify_accepts_clean_program(self, write, capsys):
        assert main(["classify", write(CLEAN)]) == 0
        assert "RL001" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [[], ["--via-chase"], ["--backend", "sql"]]
    )
    def test_answer_rejects_arity_clash(self, write, capsys, flags):
        program = write("r1: a(X) -> b(X).  r2: a(X, Y) -> c(X).")
        data = write("a(k).", name="data.dlp")
        code = main(["answer", program, "q(X) :- b(X)", data, *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert "RL001" in captured.err
        assert captured.out == ""

    def test_graph_rejects_arity_clash(self, write, capsys):
        program = write("r1: a(X) -> b(X).  r2: a(X, Y) -> c(X).")
        assert main(["graph", program, "position"]) == 2
        captured = capsys.readouterr()
        assert "RL001" in captured.err
        assert "a[2]" not in captured.out

    def test_rewrite_accepts_warnings(self, write, capsys):
        # Warnings (not-simple) must not block rewriting.
        assert main(["rewrite", write(NOT_SIMPLE), "q(X) :- r(X)"]) == 0
