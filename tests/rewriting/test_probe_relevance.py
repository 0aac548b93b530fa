"""Tests for repro.rewriting.probe and repro.rewriting.relevance."""

from repro.lang.parser import parse_program, parse_query
from repro.rewriting.engine import FORewritingEngine
from repro.rewriting.probe import ProbeVerdict, probe_query_rewritability
from repro.rewriting.relevance import relevant_rules
from repro.rewriting.rewriter import rewrite
from repro.workloads.ontologies import university_ontology
from repro.workloads.paper import EXAMPLE2_QUERY, example1, example2


class TestProbe:
    def test_terminating_query_detected(self):
        report = probe_query_rewritability(
            parse_query("q(X) :- r(X, Y)"), example1()
        )
        assert report.verdict is ProbeVerdict.TERMINATES
        assert report.result.complete

    def test_unbounded_chain_detected(self):
        report = probe_query_rewritability(
            EXAMPLE2_QUERY, example2(), max_depth=10
        )
        assert report.verdict is ProbeVerdict.DIVERGING
        assert not report.result.complete
        assert report.widths[-1] > report.widths[0]

    def test_per_query_rewritability_over_bad_set(self):
        # Example 2 is not WR, but the query on t alone never touches
        # the dangerous chain... t is only produced by no rule, so its
        # rewriting is itself: per-query FO-rewritable.
        report = probe_query_rewritability(
            parse_query("q(X, Y) :- t(X, Y)"), example2()
        )
        assert report.verdict is ProbeVerdict.TERMINATES
        assert report.result.size == 1

    def test_widths_aligned_with_depths(self):
        report = probe_query_rewritability(
            EXAMPLE2_QUERY, example2(), max_depth=6
        )
        assert len(report.widths) == len(report.depths)

    def test_terminates_verdict_returns_full_rewriting(self):
        report = probe_query_rewritability(
            parse_query("q(X) :- employee(X)"), university_ontology()
        )
        assert report.verdict is ProbeVerdict.TERMINATES
        assert report.result.size >= 5


class TestRelevance:
    def test_unreachable_module_dropped(self):
        rules = parse_program(
            """
            a(X) -> b(X).
            b(X) -> c(X).
            zebra(X) -> stripes(X).
            """
        )
        report = relevant_rules(parse_query("q(X) :- c(X)"), rules)
        assert len(report.relevant) == 2
        assert [r.head[0].relation for r in report.dropped] == ["stripes"]

    def test_transitive_reachability(self):
        rules = parse_program(
            """
            base(X) -> mid(X).
            mid(X) -> top(X).
            """
        )
        report = relevant_rules(parse_query("q(X) :- top(X)"), rules)
        assert len(report.relevant) == 2
        assert "base" in report.reachable_relations

    def test_body_relations_open_new_rules(self):
        rules = parse_program(
            """
            helper(X) -> target(X).
            source(X) -> helper(X).
            unrelated(X) -> other(X).
            """
        )
        report = relevant_rules(parse_query("q(X) :- target(X)"), rules)
        relations = {r.head[0].relation for r in report.relevant}
        assert relations == {"target", "helper"}

    def test_multi_head_rule_relevant_via_any_atom(self):
        rules = parse_program("a(X) -> b(X), c(X).")
        report = relevant_rules(parse_query("q(X) :- c(X)"), rules)
        assert len(report.relevant) == 1

    def test_filtering_preserves_rewriting(self):
        rules = list(university_ontology()) + list(
            parse_program("zebra(X) -> stripes(X). stripes(X) -> striped(X).")
        )
        query = parse_query("q(X) :- employee(X)")
        # The engine filters irrelevant rules; the library call does not.
        filtered = FORewritingEngine(rules).compile(query).ucq
        assert filtered == rewrite(query, rules).ucq

    def test_all_relevant_when_everything_reachable(self, hierarchy_rules):
        report = relevant_rules(parse_query("q(X) :- d(X)"), hierarchy_rules)
        assert report.relevant == tuple(hierarchy_rules)
        assert report.dropped == ()
