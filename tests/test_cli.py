"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main

PROGRAM = """
r1: a(X) -> b(X).
r2: b(X) -> c(X).
"""

DANGEROUS = """
R1: t(Y1, Y2), r(Y3, Y4) -> s(Y1, Y3, Y2).
R2: s(Y1, Y1, Y2) -> r(Y2, Y3).
"""

FACTS = "a(one). b(two)."


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.dlp"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture
def facts_file(tmp_path):
    path = tmp_path / "facts.dlp"
    path.write_text(FACTS)
    return str(path)


class TestClassify:
    def test_table_printed(self, program_file, capsys):
        assert main(["classify", program_file]) == 0
        out = capsys.readouterr().out
        assert "SWR" in out and "linear" in out

    def test_explain_flag(self, program_file, capsys):
        assert main(["classify", program_file, "--explain"]) == 0
        assert "SWR: True" in capsys.readouterr().out

    def test_explain_splits_a_separable_program(self, tmp_path, capsys):
        # No static disjunct bound for REWRITE, a proper partition:
        # the same SPLIT a hybrid="auto" session picks.
        from repro.workloads.interaction import SPLIT_RULES_TEXT

        path = tmp_path / "split.dlp"
        path.write_text(SPLIT_RULES_TEXT)
        assert main(["classify", str(path), "--explain"]) == 0
        assert "hybrid regime: split" in capsys.readouterr().out


class TestRewrite:
    def test_datalog_output(self, program_file, capsys):
        assert main(["rewrite", program_file, "q(X) :- c(X)"]) == 0
        out = capsys.readouterr().out
        assert "a(X)" in out and "b(X)" in out and "c(X)" in out

    def test_sql_output(self, program_file, capsys):
        assert main(["rewrite", program_file, "q(X) :- c(X)", "--sql"]) == 0
        assert "SELECT" in capsys.readouterr().out

    def test_incomplete_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.dlp"
        path.write_text(DANGEROUS)
        code = main(
            [
                "rewrite",
                str(path),
                'q() :- r("a", X)',
                "--max-depth",
                "4",
            ]
        )
        assert code == 3
        assert "incomplete" in capsys.readouterr().err


class TestAnswer:
    def test_answers_printed(self, program_file, facts_file, capsys):
        assert main(["answer", program_file, "q(X) :- c(X)", facts_file]) == 0
        out = capsys.readouterr().out
        assert '"one"' in out and '"two"' in out

    def test_via_chase_agrees(self, program_file, facts_file, capsys):
        main(["answer", program_file, "q(X) :- c(X)", facts_file])
        rewriting_out = capsys.readouterr().out
        main(
            [
                "answer",
                program_file,
                "q(X) :- c(X)",
                facts_file,
                "--via-chase",
            ]
        )
        chase_out = capsys.readouterr().out
        assert rewriting_out == chase_out

    def test_boolean_query(self, program_file, facts_file, capsys):
        assert main(["answer", program_file, "q() :- c(X)", facts_file]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_answer_plans_once(self, program_file, facts_file, monkeypatch):
        # The exactness warning describes the plan whose answers were
        # printed: one planning step per command.
        from repro.api.session import Session

        calls = []
        plan = Session._plan

        def spy(self, *args):
            calls.append(args)
            return plan(self, *args)

        monkeypatch.setattr(Session, "_plan", spy)
        assert main(["answer", program_file, "q(X) :- c(X)", facts_file]) == 0
        assert len(calls) == 1

    def test_exactness_comes_from_the_plan(self, tmp_path, capsys):
        # Example 2's chain query never finishes rewriting, but the
        # materialized chase answers it exactly: no incomplete warning.
        program = tmp_path / "ex2.dlp"
        program.write_text(DANGEROUS)
        facts = tmp_path / "facts.dlp"
        facts.write_text("t(b, a). r(b, e).")
        argv = ["answer", str(program), 'q() :- r("a", X)', str(facts)]
        assert main([*argv, "--max-depth", "5"]) == 0
        captured = capsys.readouterr()
        assert "incomplete" in captured.err
        assert main([*argv, "--max-depth", "5", "--hybrid", "materialize"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "true"
        assert "incomplete" not in captured.err


class TestTrace:
    def test_exactness_comes_from_the_plan(self, tmp_path, capsys):
        # The full rewriting of Example 2's chain query is cut short,
        # but the plan the hybrid regime runs, the materialized chase,
        # is exact: exit 0, no warning, and the chase joins the check.
        program = tmp_path / "ex2.dlp"
        program.write_text(DANGEROUS)
        facts = tmp_path / "facts.dlp"
        facts.write_text("t(b, a). r(b, e).")
        argv = ["trace", str(program), 'q() :- r("a", X)', "--data", str(facts)]
        assert main([*argv, "--max-depth", "5", "--hybrid", "materialize"]) == 0
        captured = capsys.readouterr()
        assert (
            "\nrewriting: none (the query runs over the materialized chase)\n"
            in captured.out
        )
        assert "\nplan:      chase\n" in captured.out
        assert "chase=1 agree=True" in captured.out
        assert captured.err == ""
        # Without a hybrid regime the plan is the cut rewriting itself.
        assert main([*argv, "--max-depth", "3"]) == 3
        captured = capsys.readouterr()
        assert "\nplan:      approximation\n" in captured.out
        assert captured.err.splitlines() == [
            "warning: rewriting incomplete within budget (depth=3, cqs=4); "
            "output is a sound under-approximation"
        ]


    def test_chase_plan_compiles_nothing(self, tmp_path, capsys):
        # The trace describes the plan's own artifact, and a chase plan
        # has none: with the CLI's default depth the full rewriting of
        # Example 2's chain query would run for minutes.
        from repro import obs

        program = tmp_path / "ex2.dlp"
        program.write_text(DANGEROUS)
        facts = tmp_path / "facts.dlp"
        facts.write_text("t(b, a). r(b, e).")
        argv = ["trace", str(program), 'q() :- r("a", X)', "--data", str(facts)]
        with obs.capture() as trace:
            assert main([*argv, "--hybrid", "materialize"]) == 0
        captured = capsys.readouterr()
        assert not trace.spans("engine.rewrite")
        assert "engine.rewrite" not in captured.out
        assert "\nplan:      chase\n" in captured.out
        assert "chase=1 agree=True" in captured.out
        assert captured.err == ""


class TestHybridFlag:
    @pytest.mark.parametrize("command", ["rewrite", "lint", "check"])
    def test_rejected_where_no_plan_runs(
        self, command, program_file, tmp_path, capsys
    ):
        # These commands answer nothing, so a hybrid regime could only
        # be ignored: the flag is not theirs to accept.
        manifest = tmp_path / "project.json"
        manifest.write_text('{"ontology": "prog.dlp"}')
        argv = {
            "rewrite": ["rewrite", program_file, "q(X) :- c(X)"],
            "lint": ["lint", program_file],
            "check": ["check", str(manifest)],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--hybrid", "materialize"])
        assert exit_info.value.code == 2
        assert "--hybrid" in capsys.readouterr().err


class TestGraph:
    def test_position_summary(self, program_file, capsys):
        assert main(["graph", program_file, "position"]) == 0
        assert "nodes" in capsys.readouterr().out

    def test_pnode_dot(self, program_file, capsys):
        assert main(["graph", program_file, "pnode", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestErrors:
    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.dlp"
        path.write_text("a(X) -> ")
        assert main(["classify", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestRewriteExplain:
    def test_derivations_annotated(self, program_file, capsys):
        assert (
            main(["rewrite", program_file, "q(X) :- c(X)", "--explain"])
            == 0
        )
        out = capsys.readouterr().out
        assert "<= apply r2, apply r1" in out

    def test_input_disjunct_unannotated(self, program_file, capsys):
        main(["rewrite", program_file, "q(X) :- c(X)", "--explain"])
        out_lines = capsys.readouterr().out.splitlines()
        assert any(
            line.endswith("q(X) :- c(X).") for line in out_lines
        )


class TestGraphStats:
    def test_census_appended(self, program_file, capsys):
        assert main(["graph", program_file, "position", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "nodes:" in out and "SCCs:" in out

    def test_dangerous_labels_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.dlp"
        path.write_text(DANGEROUS)
        main(["graph", str(path), "pnode", "--stats"])
        out = capsys.readouterr().out
        assert "{d,m,s}" in out


class TestTargetFlag:
    """``--target {ucq,datalog,auto}`` on rewrite/answer/trace."""

    def test_rewrite_datalog_prints_rule_program(
        self, program_file, capsys
    ):
        assert (
            main(
                [
                    "rewrite",
                    program_file,
                    "q(X) :- c(X)",
                    "--target",
                    "datalog",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "->" in out  # rule syntax, not a UCQ union
        assert "a(" in out and "c(" in out

    def test_rewrite_datalog_sql_prints_cte(self, program_file, capsys):
        assert (
            main(
                [
                    "rewrite",
                    program_file,
                    "q(X) :- c(X)",
                    "--sql",
                    "--target",
                    "datalog",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("WITH ")
        assert "SELECT DISTINCT" in out

    def test_rewrite_explain_reports_selected_target(
        self, program_file, capsys
    ):
        import json as _json

        assert (
            main(
                [
                    "rewrite",
                    program_file,
                    "q(X) :- c(X)",
                    "--explain",
                    "--target",
                    "auto",
                ]
            )
            == 0
        )
        explain = _json.loads(capsys.readouterr().out)
        assert explain["target"] == "auto"
        assert explain["target_selected"] in ("ucq", "datalog")

    def test_answer_targets_agree(self, program_file, facts_file, capsys):
        main(["answer", program_file, "q(X) :- c(X)", facts_file])
        default_out = capsys.readouterr().out
        for target in ("datalog", "auto"):
            assert (
                main(
                    [
                        "answer",
                        program_file,
                        "q(X) :- c(X)",
                        facts_file,
                        "--target",
                        target,
                    ]
                )
                == 0
            )
            assert capsys.readouterr().out == default_out

    def test_answer_sql_backend_with_datalog_target(
        self, program_file, facts_file, capsys
    ):
        main(["answer", program_file, "q(X) :- c(X)", facts_file])
        default_out = capsys.readouterr().out
        code = main(
            [
                "answer",
                program_file,
                "q(X) :- c(X)",
                facts_file,
                "--backend",
                "sql",
                "--target",
                "datalog",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == default_out

    def test_trace_reports_target_line(self, program_file, capsys):
        assert (
            main(
                [
                    "trace",
                    program_file,
                    "q(X) :- c(X)",
                    "--target",
                    "datalog",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "target:" in out
        assert "datalog" in out
        assert "rule(s)" in out

    def test_rejects_unknown_target(self, program_file, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "rewrite",
                    program_file,
                    "q(X) :- c(X)",
                    "--target",
                    "prolog",
                ]
            )
