"""The RL1xx check passes, driven over in-memory projects."""

import pytest

from repro.checkers import (
    CHECK,
    CheckConfig,
    Project,
    check_project,
    parse_queries,
)
from repro.data.database import Database
from repro.lang.parser import parse_database, parse_program
from repro.lint.diagnostics import Severity
from repro.obda.mappings import parse_mappings
from repro.rewriting.budget import RewritingBudget


def build(ontology, queries="", mappings=None, data=None):
    return Project(
        rules=parse_program(ontology),
        queries=parse_queries(queries),
        mappings=parse_mappings(mappings) if mappings is not None else None,
        data=Database(parse_database(data)) if data is not None else None,
        path="mem.dlp",
        source_text=ontology,
    )


def codes(report):
    return sorted({d.code for d in report.diagnostics})


def findings(report, code):
    return [d for d in report.diagnostics if d.code == code]


class TestWorkloadPasses:
    def test_rl100_dead_rule(self):
        report = check_project(
            build(
                "r1: professor(X) -> person(X).\n"
                "r2: teaches(X, C) -> course(C).\n",
                queries="q(X) :- person(X).\n",
            )
        )
        (dead,) = findings(report, "RL100")
        assert "r2" in dead.message and "course" in dead.message
        assert dead.severity is Severity.WARNING
        assert dead.span is not None

    def test_rl100_reachability_is_transitive(self):
        report = check_project(
            build(
                "r1: professor(X) -> person(X).\n"
                "r2: advises(X, Y) -> professor(X).\n",
                queries="q(X) :- person(X).\n",
            )
        )
        assert not findings(report, "RL100")

    def test_rl100_falls_back_on_multi_atom_heads(self):
        # Multi-atom heads are outside the position graph's fragment;
        # the pass falls back to per-query relevance filtering.
        report = check_project(
            build(
                "r1: employee(X) -> person(X), worker(X).\n"
                "r2: teaches(X, C) -> course(C).\n",
                queries="q(X) :- person(X).\n",
            )
        )
        labels = {d.rule for d in findings(report, "RL100")}
        assert "r2" in labels
        assert "r1" not in labels

    def test_rl101_unconsumed_relation(self):
        report = check_project(
            build(
                "r1: professor(X) -> person(X).\n"
                "r2: professor(X) -> tenured(X).\n",
                queries="q(X) :- person(X).\n",
            )
        )
        (unconsumed,) = findings(report, "RL101")
        assert "tenured" in unconsumed.message

    def test_rl107_no_workload_skips_workload_passes(self):
        report = check_project(
            build("r1: teaches(X, C) -> course(C).\n")
        )
        assert findings(report, "RL107")
        assert not findings(report, "RL100")
        assert not findings(report, "RL101")


class TestCoveragePasses:
    def test_rl102_unmapped_underivable_relation(self):
        report = check_project(
            build(
                "r1: professor(X), registry(X) -> person(X).\n",
                queries="q(X) :- person(X).\n",
                mappings="prof_row(X, D) ~> professor(X).\n",
                data="prof_row(ada, cs).\n",
            )
        )
        (unmapped,) = findings(report, "RL102")
        assert "registry" in unmapped.message

    def test_rl102_needs_mappings_or_data(self):
        report = check_project(
            build(
                "r1: professor(X), registry(X) -> person(X).\n",
                queries="q(X) :- person(X).\n",
            )
        )
        assert not findings(report, "RL102")

    def test_rl103_target_arity_vs_ontology(self):
        report = check_project(
            build(
                "r1: advises(X, Y) -> professor(X).\n",
                mappings="adv_row(A, S) ~> advises(A).\n",
            )
        )
        assert any(
            "advises/2" in d.message for d in findings(report, "RL103")
        )
        assert report.exit_code(strict=False) == 1

    def test_rl103_targets_disagree_with_each_other(self):
        report = check_project(
            build(
                "r1: person(X) -> human(X).\n",
                mappings=(
                    "a_row(X) ~> friend(X).\n"
                    "b_row(X, Y) ~> friend(X, Y).\n"
                ),
            )
        )
        assert any(
            "disagree" in d.message for d in findings(report, "RL103")
        )

    def test_rl103_source_arity_vs_data(self):
        report = check_project(
            build(
                "r1: professor(X) -> person(X).\n",
                mappings="prof_row(X) ~> professor(X).\n",
                data="prof_row(ada, cs).\n",
            )
        )
        assert any(
            "2 columns" in d.message for d in findings(report, "RL103")
        )

    def test_rl104_source_relation_missing(self):
        report = check_project(
            build(
                "r1: professor(X) -> person(X).\n",
                mappings="prof_tbl(X, D) ~> professor(X).\n",
                data="other_tbl(ada).\n",
            )
        )
        (missing,) = findings(report, "RL104")
        assert "prof_tbl" in missing.message
        # RL103's source-side check defers to RL104 here.
        assert not findings(report, "RL103")

    def test_rl106_derivable_but_statically_empty(self):
        report = check_project(
            build(
                "r1: professor(X) -> person(X).\n"
                "r2: dean(X) -> professor(X).\n",
                queries="q(X) :- person(X).\n",
                mappings="dean_row(X) ~> dean(X).\n",
                data="dean_row(ada).\n",
            )
        )
        relations = {
            d.message.split()[1] for d in findings(report, "RL106")
        }
        assert {"person", "professor"} <= relations
        assert all(
            d.severity is Severity.INFO for d in findings(report, "RL106")
        )
        # The hint names what makes such disjuncts match; no option
        # is left to name.
        assert all(
            d.hint == "map the relation or load its facts if these "
            "disjuncts should match"
            for d in findings(report, "RL106")
        )


class TestEstimatePass:
    ONTOLOGY = (
        "c1: a1(X) -> p(X).\n"
        "c2: a2(X) -> p(X).\n"
        "c3: a3(X) -> p(X).\n"
        "d1: b1(X) -> a1(X).\n"
        "d2: b2(X) -> b1(X).\n"
    )

    def test_rl105_fires_when_bound_exceeds_budget(self):
        report = check_project(
            build(self.ONTOLOGY, queries="q(X) :- p(X).\n"),
            CheckConfig(budget=RewritingBudget(max_depth=50, max_cqs=10, strict=False)),
        )
        (blowup,) = findings(report, "RL105")
        assert "q" in blowup.message
        assert any("offending rule chain" in n for n in blowup.notes)

    def test_rl105_recommends_the_datalog_target(self):
        report = check_project(
            build(self.ONTOLOGY, queries="q(X) :- p(X).\n"),
            CheckConfig(budget=RewritingBudget(max_depth=50, max_cqs=10, strict=False)),
        )
        (blowup,) = findings(report, "RL105")
        # The remediation note names the second rewriting target: a
        # blowup warning is exactly the case target='datalog' solves.
        assert any("datalog target available" in n for n in blowup.notes)
        assert "'datalog'/'auto'" in blowup.hint

    def test_rl105_quiet_under_roomy_budget(self):
        report = check_project(
            build(self.ONTOLOGY, queries="q(X) :- p(X).\n"),
            CheckConfig(
                budget=RewritingBudget(max_depth=50, max_cqs=100_000, strict=False)
            ),
        )
        assert not findings(report, "RL105")


class TestConfigAndRegistry:
    def test_disable_suppresses_code(self):
        project = build(
            "r1: professor(X) -> person(X).\n"
            "r2: professor(X) -> tenured(X).\n",
            queries="q(X) :- person(X).\n",
        )
        noisy = check_project(project)
        quiet = check_project(
            project, CheckConfig(disabled=frozenset({"RL101"}))
        )
        assert findings(noisy, "RL101")
        assert not findings(quiet, "RL101")

    def test_disabled_codes_are_checked(self):
        with pytest.raises(ValueError, match="no diagnostic code 'RL006'"):
            CheckConfig(disabled=frozenset({"RL006"}))

    def test_registry_codes_unique_and_catalogued(self):
        assert len({spec.code for spec in CHECK.passes}) == len(CHECK.passes)
        assert CHECK.codes() == tuple(sorted(CHECK.names()))
        assert all(
            code.startswith("RL1") or code.startswith("RL2")
            for code in CHECK.codes()
        )

    def test_stages_are_known(self):
        assert {spec.stage for spec in CHECK.passes} == {
            "workload",
            "coverage",
            "estimate",
            "interaction",
        }

    def test_diagnostics_sorted_for_rendering(self):
        report = check_project(
            build(
                "r1: professor(X), registry(X) -> person(X).\n"
                "r2: teaches(X, C) -> course(C).\n",
                queries="q(X) :- person(X).\n",
                mappings="prof_row(X, D) ~> professor(X).\n",
                data="prof_row(ada, cs).\n",
            )
        )
        assert len(report.diagnostics) >= 3
        assert report.path == "mem.dlp"


@pytest.mark.parametrize("code", CHECK.codes())
def test_every_code_has_a_kebab_name(code):
    name = CHECK.names()[code]
    assert name and name == name.lower() and " " not in name
