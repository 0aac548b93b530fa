"""Property-based agreement tests across the three chase variants.

On weakly-acyclic inputs all three chases terminate; the certain
answers read off each fixpoint (null-free filter) must coincide, and
the instance-size ordering restricted ⊆ skolem ⊆ oblivious must hold.
The oblivious and Skolem chases fire every trigger exactly once, so
their step counts equal the triggers over the final instance.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.chase.chase import oblivious_chase, restricted_chase
from repro.chase.skolem import skolem_chase
from repro.chase.termination import is_weakly_acyclic
from repro.data.database import Database
from repro.data.evaluation import all_homomorphisms, evaluate_cq
from repro.lang.atoms import Atom
from repro.lang.queries import ConjunctiveQuery
from repro.lang.terms import Constant, Variable
from repro.lang.tgd import TGD

RELATIONS = {"a": 1, "r": 2}
VARS = [Variable(f"V{i}") for i in range(3)]
VALUES = [Constant(f"d{i}") for i in range(3)]


@st.composite
def tgds(draw, max_body=1):
    body = []
    for _ in range(draw(st.integers(1, max_body))):
        body_relation = draw(st.sampled_from(sorted(RELATIONS)))
        body.append(
            Atom(
                body_relation,
                [
                    draw(st.sampled_from(VARS))
                    for _ in range(RELATIONS[body_relation])
                ],
            )
        )
    head_relation = draw(st.sampled_from(sorted(RELATIONS)))
    body_vars = sorted(
        {v for a in body for v in a.variables()}, key=lambda v: v.name
    )
    head_terms = []
    for position in range(RELATIONS[head_relation]):
        if draw(st.booleans()):
            head_terms.append(draw(st.sampled_from(body_vars)))
        else:
            head_terms.append(Variable(f"E{position}"))
    if not set(head_terms) & set(body_vars):
        head_terms[0] = body_vars[0]
    return TGD(body, [Atom(head_relation, head_terms)])


rule_sets = st.lists(tgds(), min_size=1, max_size=3)
join_rule_sets = st.lists(tgds(max_body=2), min_size=1, max_size=3)


@st.composite
def databases(draw):
    facts = []
    for relation, arity in RELATIONS.items():
        for _ in range(draw(st.integers(0, 3))):
            facts.append(
                Atom(
                    relation,
                    [draw(st.sampled_from(VALUES)) for _ in range(arity)],
                )
            )
    return Database(facts)


QUERIES = (
    ConjunctiveQuery([Variable("X")], [Atom("a", [Variable("X")])]),
    ConjunctiveQuery(
        [Variable("X")], [Atom("r", [Variable("X"), Variable("Y")])]
    ),
    ConjunctiveQuery([], [Atom("r", [Variable("X"), Variable("X")])]),
)


class TestChaseVariantAgreement:
    @given(rule_sets, databases())
    @settings(max_examples=50, deadline=None)
    def test_certain_answers_agree(self, rules, database):
        if not is_weakly_acyclic(rules):
            return
        restricted = restricted_chase(
            list(rules), database.copy(), max_steps=5_000
        )
        skolem = skolem_chase(list(rules), database.copy(), max_steps=5_000)
        if not (restricted.fixpoint and skolem.fixpoint):
            return
        for query in QUERIES:
            assert evaluate_cq(
                query, restricted.instance, certain=True
            ) == evaluate_cq(query, skolem.instance, certain=True)

    @given(rule_sets, databases())
    @settings(max_examples=30, deadline=None)
    def test_size_ordering(self, rules, database):
        if not is_weakly_acyclic(rules):
            return
        restricted = restricted_chase(
            list(rules), database.copy(), max_steps=5_000
        )
        skolem = skolem_chase(list(rules), database.copy(), max_steps=5_000)
        oblivious = oblivious_chase(
            list(rules), database.copy(), max_steps=5_000
        )
        if not (
            restricted.fixpoint and skolem.fixpoint and oblivious.fixpoint
        ):
            return
        assert len(restricted.instance) <= len(skolem.instance)
        assert len(skolem.instance) <= len(oblivious.instance)

    @given(rule_sets, databases())
    @settings(max_examples=30, deadline=None)
    def test_skolem_order_insensitive(self, rules, database):
        if not is_weakly_acyclic(rules):
            return
        forward = skolem_chase(list(rules), database.copy(), max_steps=5_000)
        backward = skolem_chase(
            list(reversed(rules)), database.copy(), max_steps=5_000
        )
        if not (forward.fixpoint and backward.fixpoint):
            return
        # Null labels embed the rule index, so compare null-free
        # projections: certain answers must be identical.
        for query in QUERIES:
            assert evaluate_cq(
                query, forward.instance, certain=True
            ) == evaluate_cq(query, backward.instance, certain=True)

    @given(join_rule_sets, databases())
    @settings(max_examples=40, deadline=None)
    def test_each_trigger_fires_once(self, rules, database):
        # A trigger first matched mid-round through a fact of that same
        # round must not be enumerated again when the next round
        # anchors at that fact.
        if not is_weakly_acyclic(rules):
            return
        for chase in (oblivious_chase, skolem_chase):
            result = chase(list(rules), database.copy(), max_steps=5_000)
            if not result.fixpoint:
                continue
            triggers = sum(
                len(list(all_homomorphisms(rule.body, result.instance)))
                for rule in rules
            )
            assert result.steps == triggers, chase.__name__
