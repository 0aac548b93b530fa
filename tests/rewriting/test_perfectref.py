"""Tests for the PerfectRef baseline (repro.rewriting.perfectref)."""

import random

import pytest

from repro.chase.certain import certain_answers
from repro.chase.termination import is_weakly_acyclic
from repro.data.database import Database
from repro.data.evaluation import evaluate_ucq
from repro.lang.errors import NotSupportedError
from repro.lang.parser import parse_program, parse_query
from repro.rewriting.perfectref import perfectref_rewrite
from repro.rewriting.rewriter import rewrite
from repro.workloads.generators import generate_database, random_linear


class TestScope:
    def test_non_linear_rejected(self):
        rules = parse_program("a(X), b(X) -> c(X).")
        with pytest.raises(NotSupportedError):
            perfectref_rewrite(parse_query("q(X) :- c(X)"), rules)

    def test_multi_head_rejected(self):
        rules = parse_program("a(X) -> b(X), c(X).")
        with pytest.raises(NotSupportedError):
            perfectref_rewrite(parse_query("q(X) :- c(X)"), rules)


class TestBasics:
    def test_hierarchy(self, hierarchy_rules):
        result = perfectref_rewrite(
            parse_query("q(X) :- d(X)"), hierarchy_rules
        )
        assert result.complete
        assert result.size == 4

    def test_existential_applicability(self, existential_rules):
        # q(Y) :- org(Y): Y is an answer variable, so the worksAt
        # rewriting stops before inventing it from person.
        result = perfectref_rewrite(
            parse_query("q(Y) :- org(Y)"), existential_rules
        )
        relations = {cq.body[0].relation for cq in result.ucq}
        assert relations == {"org", "worksAt"}

    def test_boolean_goes_deeper(self, existential_rules):
        result = perfectref_rewrite(
            parse_query("q() :- org(Y)"), existential_rules
        )
        relations = {cq.body[0].relation for cq in result.ucq}
        assert relations == {"org", "worksAt", "person"}

    def test_reduce_step_enables_rewriting(self):
        # Two atoms must be merged before the rule head r(X, Z)
        # applies (Y is shared between them).
        rules = parse_program("a(X) -> r(X, Z).")
        result = perfectref_rewrite(
            parse_query("q() :- r(X, Y), r(X2, Y)"), rules
        )
        relations = {
            frozenset(a.relation for a in cq.body) for cq in result.ucq
        }
        assert frozenset({"a"}) in relations

    def test_shared_variable_never_becomes_a_null(self):
        # Y also occurs in s(Y), so r(X, Y) cannot be rewritten alone
        # into a(X): that step would claim s holds of an invented null.
        rules = parse_program("a(X) -> r(X, Z).")
        query = parse_query("q(X) :- r(X, Y), s(Y)")
        result = perfectref_rewrite(query, rules)
        assert [str(cq) for cq in result.ucq] == [str(query)]


class TestAgreementWithPieceEngine:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_ucq_on_random_linear_sets(self, seed):
        rules = random_linear(random.Random(seed), n_rules=5)
        # One atomic query on the signature's first relation.
        from repro.lang.signature import Signature
        from repro.lang.atoms import Atom
        from repro.lang.queries import ConjunctiveQuery
        from repro.lang.terms import Variable

        signature = Signature.from_rules(rules)
        relation = signature.relations()[0]
        variables = [
            Variable(f"Q{i}") for i in range(signature[relation])
        ]
        query = ConjunctiveQuery(variables[:1], [Atom(relation, variables)])

        baseline = perfectref_rewrite(query, rules)
        general = rewrite(query, rules)
        assert baseline.complete and general.complete
        assert baseline.ucq == general.ucq, [str(r) for r in rules]

    @pytest.mark.parametrize("seed", range(6))
    def test_baseline_answers_match_chase(self, seed):
        rules = random_linear(random.Random(100 + seed), n_rules=4)
        if not is_weakly_acyclic(rules):
            pytest.skip("chase ground truth unavailable")
        from repro.lang.signature import Signature
        from repro.lang.atoms import Atom
        from repro.lang.queries import ConjunctiveQuery
        from repro.lang.terms import Variable

        signature = Signature.from_rules(rules)
        relation = signature.relations()[0]
        variables = [Variable(f"Q{i}") for i in range(signature[relation])]
        query = ConjunctiveQuery(variables[:1], [Atom(relation, variables)])
        result = perfectref_rewrite(query, rules)
        if not result.complete:
            pytest.skip("baseline did not converge in budget")
        database = Database(
            generate_database(random.Random(seed), rules, facts_per_relation=4)
        )
        assert evaluate_ucq(result.ucq, database) == certain_answers(
            query, rules, database, max_steps=100_000
        )
