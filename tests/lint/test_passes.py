"""Unit tests for the individual analysis passes."""

import pytest

from repro.lang.parser import parse_program, parse_query
from repro.lint.diagnostics import Severity
from repro.lint.engine import LintConfig, lint_program, lint_source, preflight
from repro.lint.passes import rule_subsumes
from repro.rewriting.budget import RewritingBudget


def codes(report):
    return [d.code for d in report]


class TestArityConsistency:
    def test_mismatch_is_error(self):
        report = lint_program(
            parse_program("R1: a(X) -> b(X).\nR2: b(X, Y) -> c(X).")
        )
        (d,) = [d for d in report if d.code == "RL001"]
        assert d.severity is Severity.ERROR
        assert "b" in d.message and "arity" in d.message
        assert d.span is not None

    def test_query_arity_checked(self):
        report = lint_source("R1: a(X) -> b(X).", query_text="q(X) :- b(X, Y)")
        assert "RL001" in codes(report)

    def test_consistent_program_clean(self):
        report = lint_program(parse_program("R1: a(X) -> b(X)."))
        assert "RL001" not in codes(report)


class TestExistentialHeadVariables:
    def test_plain_existential_is_info(self):
        report = lint_program(parse_program("R1: a(X) -> b(X, Y)."))
        (d,) = [d for d in report if d.code == "RL002"]
        assert d.severity is Severity.INFO

    def test_near_miss_is_warning(self):
        report = lint_program(
            parse_program("R1: person(Name) -> registered(Nane).")
        )
        (d,) = [d for d in report if d.code == "RL002"]
        assert d.severity is Severity.WARNING
        assert "typo" in d.message

    def test_digit_suffix_is_not_a_typo(self):
        # Y1 vs Y3 is conventional naming, not a near-miss.
        report = lint_program(parse_program("R1: a(Y1) -> b(Y1, Y3)."))
        (d,) = [d for d in report if d.code == "RL002"]
        assert d.severity is Severity.INFO


class TestSubsumption:
    def test_duplicate_detected(self):
        report = lint_program(
            parse_program("R1: a(X) -> b(X).\nR2: a(Y) -> b(Y).")
        )
        (d,) = [d for d in report if d.code == "RL003"]
        assert "R2" in d.message and "R1" in d.message

    def test_strictly_more_general_rule_subsumes(self):
        general, specific = parse_program(
            "R1: a(X) -> b(X).\nR2: a(X), c(X) -> b(X)."
        )
        assert rule_subsumes(general, specific)
        assert not rule_subsumes(specific, general)
        report = lint_program((general, specific))
        (d,) = [d for d in report if d.code == "RL004"]
        assert d.rule == "R2"

    def test_different_heads_not_subsumed(self):
        report = lint_program(
            parse_program("R1: a(X) -> b(X).\nR2: a(X) -> c(X).")
        )
        assert "RL003" not in codes(report)
        assert "RL004" not in codes(report)

    def test_repeated_head_variable_blocks_subsumption(self):
        # b(X, X) is strictly more specific than b(X, Y).
        general, specific = parse_program(
            "R1: a(X, Y) -> b(X, Y).\nR2: a(X, X) -> b(X, X)."
        )
        assert not rule_subsumes(specific, general)


class TestUnusedAndUnderivable:
    def test_unused_requires_query(self):
        rules = parse_program("R1: a(X) -> b(X).\nR2: a(X) -> c(X).")
        assert "RL005" not in codes(lint_program(rules))
        report = lint_program(rules, parse_query("q(X) :- b(X)"))
        (d,) = [d for d in report if d.code == "RL005"]
        assert "c" in d.message and d.rule == "R2"

    def test_edb_relation_is_info(self):
        report = lint_program(parse_program("R1: base(X) -> derived(X)."))
        (d,) = [d for d in report if d.code == "RL006"]
        assert d.severity is Severity.INFO
        assert "EDB" in d.message

    def test_near_miss_underivable_is_warning(self):
        report = lint_program(
            parse_program(
                "R1: a(X) -> reaches(X).\nR2: reachs(X) -> goal(X)."
            )
        )
        found = [d for d in report if d.code == "RL006"]
        warning = [d for d in found if d.severity is Severity.WARNING]
        assert warning and "reaches" in warning[0].message


class TestSimplicity:
    def test_repeated_variable_in_atom(self):
        report = lint_program(parse_program("R1: s(X, X) -> r(X)."))
        (d,) = [d for d in report if d.code == "RL007"]
        assert "repeated variable" in d.message
        assert d.span is not None

    def test_simple_rules_clean(self):
        report = lint_program(parse_program("R1: s(X, Y), t(Z) -> r(X, Z)."))
        assert "RL007" not in codes(report)


class TestRecursionDiagnostics:
    def test_rl010_names_rules_and_edge_labels(self):
        # Simple TGD whose position graph has a cycle with both an
        # m-edge (W is missing from the first body atom) and an s-edge
        # (Y joins the two body atoms).
        report = lint_program(parse_program("R1: a(X, Y), b(Y, Z) -> a(Z, W)."))
        (d,) = [d for d in report if d.code == "RL010"]
        assert d.severity is Severity.WARNING
        assert "R1" in d.message
        assert d.notes, "witness cycle must be rendered in the notes"
        rendered = "\n".join(d.notes)
        assert "m" in rendered and "s" in rendered
        assert "via R1" in rendered

    def test_rl013_on_multi_atom_head(self):
        report = lint_program(parse_program("R1: a(X) -> b(X), c(X)."))
        assert "RL013" in codes(report)
        assert "RL010" not in codes(report)

    def test_rl012_on_pnode_budget(self):
        rules = parse_program("R1: a(X, Y), b(Y, Z) -> a(Z, W).")
        config = LintConfig(wr_max_nodes=1)
        report = lint_program(rules, config=config)
        (d,) = [d for d in report if d.code == "RL012"]
        assert d.severity is Severity.INFO

    def test_non_recursive_program_has_no_recursion_findings(self):
        report = lint_program(parse_program("R1: a(X) -> b(X)."))
        assert not any(
            c in codes(report) for c in ("RL010", "RL011", "RL012", "RL013")
        )


class TestRewritingRisk:
    def test_rl020_high_branching(self):
        text = "\n".join(f"R{i}: a{i}(X) -> hub(X)." for i in range(1, 10))
        report = lint_program(parse_program(text))
        (d,) = [d for d in report if d.code == "RL020"]
        assert "hub" in d.message and "9" in d.message

    def test_rl020_threshold_configurable(self):
        text = "R1: a(X) -> hub(X).\nR2: b(X) -> hub(X)."
        rules = parse_program(text)
        assert "RL020" not in codes(lint_program(rules))
        report = lint_program(rules, config=LintConfig(branching_threshold=2))
        assert "RL020" in codes(report)

    def test_growth_estimate_acyclic(self):
        rules = parse_program("R1: a(X) -> b(X).\nR2: b(X) -> c(X).")
        budget = RewritingBudget(max_cqs=3)
        report = lint_program(
            rules, parse_query("q(X) :- c(X)"), LintConfig(budget=budget)
        )
        (d,) = [d for d in report if d.code == "RL021"]
        # (1 + 1 deriver) ** 2 over the two-rule chain
        assert "~4" in d.message
        assert "2 rounds" in d.message

    def test_rl021_silent_on_fo_rewritable_recursion(self):
        # Example 1 is SWR: even with a huge budget max_depth, the
        # cyclic-chain fallback must not predict a blowup.
        from repro.workloads.paper import EXAMPLE1_QUERY, example1

        budget = RewritingBudget(max_depth=50, max_cqs=100_000)
        report = lint_program(
            example1(), EXAMPLE1_QUERY, LintConfig(budget=budget)
        )
        assert "RL021" not in codes(report)

    def test_rl021_fires_against_tight_budget(self):
        rules = parse_program("R1: a(X) -> b(X).\nR2: b(X) -> c(X).")
        budget = RewritingBudget(max_cqs=2)
        report = lint_program(
            rules, parse_query("q(X) :- c(X)"), LintConfig(budget=budget)
        )
        (d,) = [d for d in report if d.code == "RL021"]
        assert "max_cqs=2" in d.message

    def test_rl022_on_uncovered_recursion(self):
        # Transitive closure plus value invention fed back into the
        # closure: outside SWR, WR and every baseline class.
        text = (
            "R1: e(X, Y), e(Y, Z) -> e(X, Z).\n"
            "R2: e(X, X) -> p(X, W).\n"
            "R3: p(X, Y), e(Y, X) -> e(X, Y).\n"
        )
        report = lint_program(parse_program(text))
        assert "RL022" in codes(report)


class TestEngineControls:
    def test_disabled_codes_suppressed(self):
        rules = parse_program("R1: s(X, X) -> r(X).")
        report = lint_program(rules, config=LintConfig(disabled=frozenset({"RL007"})))
        assert "RL007" not in codes(report)

    def test_stage_selection(self):
        rules = parse_program("R1: a(X, Y), b(Y, Z) -> a(Z, W).")
        report = lint_program(
            rules, config=LintConfig(stages=("wellformed",))
        )
        assert "RL010" not in codes(report)

    def test_disabled_codes_are_checked(self):
        with pytest.raises(ValueError, match="no diagnostic code 'RL999'"):
            LintConfig(disabled=frozenset({"RL999"}))
        with pytest.raises(ValueError, match="did you mean RL006"):
            LintConfig(disabled=frozenset({"rl006"}))
        with pytest.raises(ValueError, match="RL000 cannot be disabled"):
            LintConfig(disabled=frozenset({"RL000"}))

    def test_lint_source_parse_error_becomes_rl000(self):
        report = lint_source("a(X -> b(X).")
        (d,) = report.diagnostics
        assert d.code == "RL000"
        assert d.severity is Severity.ERROR
        assert d.span is not None

    def test_lint_source_query_parse_error(self):
        report = lint_source("R1: a(X) -> b(X).", query_text="q(X :- b(X)")
        (d,) = report.diagnostics
        assert d.code == "RL000"
        assert d.message.startswith("query: ")
        assert d.span is None  # spans into query_text must not render
        # against the program source

    def test_query_diagnostics_carry_no_program_span(self):
        # The query parses from a separate string; its spans index
        # that string, so lint_source must strip them.
        report = lint_source(
            "R1: a(X) -> b(X).", query_text="q(X) :- b(X, Y)"
        )
        (d,) = [d for d in report if d.code == "RL001"]
        assert d.span is None


class TestPreflight:
    def test_only_errors_returned(self):
        rules = parse_program("R1: s(X, X) -> r(X).")  # RL007 warning only
        assert preflight(rules) == ()

    def test_arity_error_caught(self):
        rules = parse_program("R1: a(X) -> b(X).\nR2: b(X, Y) -> c(X).")
        findings = preflight(rules)
        assert findings and findings[0].code == "RL001"
