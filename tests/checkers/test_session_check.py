"""``Session.check()``: the ``repro check`` passes over a session."""

import json

from repro.api import EngineOptions, Session
from repro.checkers import CheckConfig
from repro.data.database import Database
from repro.lang.parser import parse_database, parse_program, parse_query
from repro.lint import render
from repro.obda.mappings import parse_mappings
from repro.rewriting.budget import RewritingBudget

ONTOLOGY = parse_program(
    "r_prof: professor(X) -> person(X).\n"
    "r_dead: teaches(X, C) -> course(C).\n"
    "r_ghost: registry(X) -> person(X).\n"
)
MAPPINGS = parse_mappings("prof_row(X, D) ~> professor(X).\n")
DATA = Database(parse_database("prof_row(ada, cs).\n"))
QUERY = parse_query("q(X) :- person(X)")

FANOUT = parse_program(
    "\n".join(f"c{i}: a{i}(X) -> p(X)." for i in range(1, 13))
    + "\nd1: b1(X) -> a1(X).\nd2: b2(X) -> b1(X).\n"
    + "d3: b3(X) -> b2(X).\nd4: b4(X) -> b3(X).\n"
)


class TestSessionCheck:
    def test_workload_defaults_to_prepared_queries(self):
        with Session(ONTOLOGY, DATA, mappings=MAPPINGS) as session:
            session.prepare(QUERY)
            report = session.check()
        codes = {d.code for d in report.diagnostics}
        assert "RL100" in codes  # r_dead
        assert "RL107" not in codes

    def test_no_prepared_queries_reports_no_workload(self):
        with Session(ONTOLOGY, DATA, mappings=MAPPINGS) as session:
            report = session.check()
        assert any(d.code == "RL107" for d in report.diagnostics)

    def test_explicit_workload_accepts_text(self):
        with Session(ONTOLOGY, DATA, mappings=MAPPINGS) as session:
            report = session.check(queries=["q(X) :- person(X)"])
        assert any(d.code == "RL100" for d in report.diagnostics)

    def test_config_forwarded(self):
        with Session(ONTOLOGY, DATA, mappings=MAPPINGS) as session:
            report = session.check(
                queries=[QUERY],
                config=CheckConfig(disabled=frozenset({"RL100", "RL101"})),
            )
        codes = {d.code for d in report.diagnostics}
        assert "RL100" not in codes

    def test_session_budget_is_the_default_estimate_budget(self):
        budget = RewritingBudget(max_depth=50, max_cqs=5, strict=False)
        with Session(FANOUT, options=EngineOptions(budget=budget)) as session:
            report = session.check(queries=["q(X) :- p(X)"])
        assert any(d.code == "RL105" for d in report.diagnostics)

    def test_report_renders_like_the_cli(self):
        with Session(ONTOLOGY, DATA, mappings=MAPPINGS) as session:
            session.prepare(QUERY)
            out = render(session.check(), "text")
        assert "RL100" in out and "<session>" in out

    def test_sarif_names_the_check_driver_and_rules(self):
        with Session(ONTOLOGY, DATA, mappings=MAPPINGS) as session:
            session.prepare(QUERY)
            doc = json.loads(render(session.check(), "sarif"))
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-check"
        rules = {rule["id"]: rule["name"] for rule in driver["rules"]}
        assert rules["RL100"] == "dead-rule"

    def test_dataless_mappingless_session_checks(self):
        with Session(ONTOLOGY) as session:
            report = session.check(queries=[QUERY])
        codes = {d.code for d in report.diagnostics}
        # Coverage passes need mappings or data; workload passes run.
        assert "RL102" not in codes
        assert "RL100" in codes
