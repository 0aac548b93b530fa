"""Tests for repro.rewriting.rewriter (the saturation engine)."""

import pytest

from repro.lang.parser import parse_program, parse_query, parse_ucq
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.rewriter import rewrite
from repro.workloads.paper import EXAMPLE2_QUERY, example1, example2, example3


class TestHierarchies:
    def test_concept_hierarchy_rewriting(self, hierarchy_rules):
        result = rewrite(parse_query("q(X) :- d(X)"), hierarchy_rules)
        assert result.complete
        assert result.size == 4  # d, c, b, a
        relations = {cq.body[0].relation for cq in result.ucq}
        assert relations == {"a", "b", "c", "d"}

    def test_query_on_bottom_concept_unchanged(self, hierarchy_rules):
        result = rewrite(parse_query("q(X) :- a(X)"), hierarchy_rules)
        assert result.complete and result.size == 1

    def test_existential_chain(self, existential_rules):
        result = rewrite(parse_query("q(Y) :- org(Y)"), existential_rules)
        assert result.complete
        # org(Y) and worksAt(X, Y); NOT person (Y would be a null).
        relations = {cq.body[0].relation for cq in result.ucq}
        assert relations == {"org", "worksAt"}

    def test_boolean_existential_chain_reaches_person(
        self, existential_rules
    ):
        result = rewrite(parse_query("q() :- org(Y)"), existential_rules)
        assert result.complete
        relations = {cq.body[0].relation for cq in result.ucq}
        assert relations == {"org", "worksAt", "person"}


class TestPaperExamples:
    def test_example1_terminates(self):
        result = rewrite(parse_query("q(X) :- r(X, Y)"), example1())
        assert result.complete
        assert result.size == 3

    def test_example1_subsumption_closes_the_loop(self):
        # The v -> r -> s -> v cycle only terminates because subsumed
        # rewritings are pruned; saturation must still finish.
        result = rewrite(parse_query("q(X, Y) :- v(X, Y)"), example1())
        assert result.complete

    def test_example2_unbounded_chain_hits_budget(self):
        result = rewrite(
            EXAMPLE2_QUERY,
            example2(),
            RewritingBudget(max_depth=12, max_cqs=100_000),
        )
        assert not result.complete

    def test_example2_growth_is_monotone(self):
        sizes = [
            rewrite(
                EXAMPLE2_QUERY,
                example2(),
                RewritingBudget(max_depth=depth),
            ).max_body_atoms
            for depth in (2, 4, 6, 8)
        ]
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_example3_terminates_on_all_atomic_queries(self):
        rules = example3()
        for text in (
            "q(X) :- u(X)",
            "q(X, Y) :- r(X, Y)",
            "q(X, Y, Z) :- s(X, Y, Z)",
            "q(X, Y, Z) :- t(X, Y, Z)",
        ):
            result = rewrite(parse_query(text), rules)
            assert result.complete, text

    def test_example3_blocked_recursion(self):
        # The R1/R2/R3 loop never applies: the rewriting of u+t stays
        # put.
        result = rewrite(
            parse_query("q(X) :- u(X), t(X, X, Y)"), example3()
        )
        assert result.complete
        assert result.size == 1


class TestBudgets:
    def test_depth_zero_returns_input(self, hierarchy_rules):
        result = rewrite(
            parse_query("q(X) :- d(X)"),
            hierarchy_rules,
            RewritingBudget(max_depth=0),
        )
        assert not result.complete
        assert result.size == 1

    def test_max_cqs_budget(self, hierarchy_rules):
        result = rewrite(
            parse_query("q(X) :- d(X)"),
            hierarchy_rules,
            RewritingBudget(max_cqs=2),
        )
        assert not result.complete
        assert result.generated >= 2

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            RewritingBudget(max_depth=-1)
        with pytest.raises(ValueError):
            RewritingBudget(max_cqs=0)


class TestResultStructure:
    def test_per_depth_series(self, hierarchy_rules):
        result = rewrite(parse_query("q(X) :- d(X)"), hierarchy_rules)
        assert result.per_depth[0] == 1
        assert sum(result.per_depth) == result.generated

    def test_output_has_no_subsumed_disjuncts(self, hierarchy_rules):
        from repro.rewriting.minimize import is_subsumed

        result = rewrite(parse_query("q(X) :- d(X)"), hierarchy_rules)
        disjuncts = list(result.ucq)
        for i, a in enumerate(disjuncts):
            for j, b in enumerate(disjuncts):
                if i != j:
                    assert not is_subsumed(a, b)

    def test_ucq_input_accepted(self, hierarchy_rules):
        ucq = parse_ucq("q(X) :- c(X). q(X) :- d(X).")
        result = rewrite(ucq, hierarchy_rules)
        assert result.complete
        assert result.size == 4  # a, b, c, d (c/d disjuncts merge paths)

    def test_rewriting_of_rule_free_program(self):
        result = rewrite(parse_query("q(X) :- r(X)"), [])
        assert result.complete and result.size == 1


class TestMultiHead:
    def test_multi_head_rule_rewrites_joined_pair(self):
        rules = parse_program("a(X) -> b(X, Y), c(Y).")
        result = rewrite(parse_query("q(X) :- b(X, Y), c(Y)"), rules)
        assert result.complete
        relations = sorted(
            tuple(sorted(a.relation for a in cq.body)) for cq in result.ucq
        )
        assert ("a",) in relations

    def test_multi_head_partial_match_still_requires_null_safety(self):
        rules = parse_program("a(X) -> b(X, Y), c(Y).")
        # c alone: Y is existential in the query, fine.
        result = rewrite(parse_query("q() :- c(Y)"), rules)
        assert result.complete
        bodies = {cq.body[0].relation for cq in result.ucq}
        assert bodies == {"c", "a"}


class TestTimeBudget:
    def test_time_ceiling_cuts_divergence(self):
        import time

        start = time.monotonic()
        result = rewrite(
            EXAMPLE2_QUERY,
            example2(),
            RewritingBudget(max_cqs=10_000_000, max_seconds=2),
        )
        elapsed = time.monotonic() - start
        assert not result.complete
        assert elapsed < 30  # generous CI margin over the 2s ceiling

    def test_time_ceiling_irrelevant_when_fast(self, hierarchy_rules):
        result = rewrite(
            parse_query("q(X) :- d(X)"),
            hierarchy_rules,
            RewritingBudget(max_seconds=60),
        )
        assert result.complete

    def test_invalid_time_budget_rejected(self):
        with pytest.raises(ValueError):
            RewritingBudget(max_seconds=0)
