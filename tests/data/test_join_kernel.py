"""The compiled join kernel against the per-row matcher it replaced.

:mod:`tests.data.reference_matcher` keeps the old matcher; on random
databases of constants and nulls and random bodies (constants, repeated
variables, pre-bound variables, an atom whose arity differs from the
stored relation's) the kernel must yield the same homomorphisms in the
same order, and the answer functions the same answers.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.data.database import Database
from repro.data.evaluation import (
    JoinPlan,
    all_homomorphisms,
    evaluate_cq,
    evaluate_ucq,
    find_homomorphism,
    holds,
)
from repro.lang.atoms import Atom
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.terms import Constant, Null, Variable
from tests.data.reference_matcher import match_atom, match_body

ARITIES = {"r": 2, "s": 1, "t": 3}
VARIABLES = [Variable(name) for name in ("X", "Y", "Z", "W")]
X, Y, Z = VARIABLES[:3]

values = st.one_of(
    st.integers(0, 3).map(lambda i: Constant(f"c{i}")),
    st.integers(0, 1).map(lambda i: Null(f"n{i}")),
)


@st.composite
def databases(draw):
    facts = [
        Atom(relation, [draw(values) for _ in range(arity)])
        for relation, arity in ARITIES.items()
        for _ in range(draw(st.integers(0, 8)))
    ]
    return Database(facts)


@st.composite
def bodies(draw):
    """1-4 atoms over r/s/t; now and then one with the wrong arity."""
    terms = st.one_of(st.sampled_from(VARIABLES), values)
    body = []
    for _ in range(draw(st.integers(1, 4))):
        relation = draw(st.sampled_from(sorted(ARITIES)))
        arity = ARITIES[relation]
        if draw(st.integers(0, 9)) == 0:
            # Narrower than the stored relation: the old matcher read
            # every row and rejected it on its length.
            arity -= 1
        body.append(Atom(relation, [draw(terms) for _ in range(arity)]))
    return body


@st.composite
def bindings(draw, body):
    """Values for a random subset of the body's variables."""
    names = sorted({v for atom in body for v in atom.variables()}, key=str)
    return {
        var: draw(values)
        for var in names
        if draw(st.booleans()) and draw(st.booleans())
    }


def _ordered(homs):
    return [list(hom.items()) for hom in homs]


def _reference_answers(query, database, certain):
    rows = set()
    for hom in match_body(list(query.body), database, {}):
        row = tuple(
            hom[t] if isinstance(t, Variable) else t for t in query.answer_terms
        )
        if not (certain and any(isinstance(t, Null) for t in row)):
            rows.add(row)
    return frozenset(rows)


def _queries(body, data):
    names = sorted({v for atom in body for v in atom.variables()}, key=str)
    answers = [v for v in names if data.draw(st.booleans())]
    if data.draw(st.booleans()):
        answers.append(Constant("k"))
    return ConjunctiveQuery(answers, body)


class TestAgainstReference:
    @given(databases(), bodies(), st.data())
    def test_same_homomorphisms_in_same_order(self, database, body, data):
        binding = data.draw(bindings(body))
        expected = _ordered(match_body(list(body), database, dict(binding)))
        assert _ordered(all_homomorphisms(body, database, binding)) == expected
        first = find_homomorphism(body, database, binding)
        assert (first is None) == (not expected)
        if first is not None:
            assert list(first.items()) == expected[0]

    @given(databases(), bodies(), st.data())
    def test_anchored_plan_matches_reference(self, database, body, data):
        anchor = data.draw(st.integers(0, len(body) - 1))
        atom = body[anchor]
        rows = sorted(database.rows(atom.relation), key=str)
        rest = body[:anchor] + body[anchor + 1:]
        expected = []
        for row in rows:
            seed = match_atom(atom, row, {})
            if seed is not None:
                expected.extend(match_body(rest, database, seed))
        plan = JoinPlan(body, database, anchor=anchor)
        slots = plan.slots()
        got = [plan.binding(slots) for _ in plan.run(database, slots, rows)]
        assert _ordered(got) == _ordered(expected)

    @given(databases(), st.lists(bodies(), min_size=1, max_size=3), st.data())
    def test_answers_agree(self, database, body_list, data):
        cqs = [_queries(body, data) for body in body_list]
        arity = cqs[0].arity
        cqs = [cq for cq in cqs if cq.arity == arity]
        for certain in (False, True):
            expected = frozenset().union(
                *(_reference_answers(cq, database, certain) for cq in cqs)
            )
            got = evaluate_ucq(
                UnionOfConjunctiveQueries(cqs), database, certain=certain
            )
            assert got == expected
            assert evaluate_cq(cqs[0], database, certain=certain) == (
                _reference_answers(cqs[0], database, certain)
            )
        assert holds(cqs[0], database) == bool(
            _reference_answers(cqs[0], database, False)
        )


class TestArityMismatch:
    """A body atom whose arity differs from the stored relation's
    matches no row."""

    DATABASE = [Atom("r", [Constant("a"), Constant("b")]), Atom("s", [Constant("a")])]

    def test_narrower_atom_matches_nothing(self):
        database = Database(self.DATABASE)
        body = [Atom("s", [X]), Atom("r", [X])]
        assert list(all_homomorphisms(body, database)) == []
        assert list(match_body(body, database, {})) == []
        assert evaluate_cq(ConjunctiveQuery([X], body), database) == frozenset()

    def test_wider_atom_matches_nothing(self):
        database = Database(self.DATABASE)
        body = [Atom("r", [X, Y, Constant("a")])]
        assert list(all_homomorphisms(body, database)) == []
        assert find_homomorphism(body, database) is None
        # The old matcher probed the index on the third place of a
        # binary relation.
        with pytest.raises(IndexError):
            list(match_body(body, database, {}))

    def test_plan_with_a_mismatched_atom_is_empty(self):
        database = Database(self.DATABASE)
        plan = JoinPlan([Atom("s", [X]), Atom("r", [X, Y, Z])], database)
        assert plan.steps is None
        assert list(plan.run(database, plan.slots())) == []

    def test_unknown_relation_matches_nothing(self):
        database = Database(self.DATABASE)
        assert find_homomorphism([Atom("u", [X])], database) is None


class TestPlanShape:
    def test_greedy_order_and_slots(self):
        database = Database(
            [Atom("r", [Constant(f"c{i}"), Constant("d")]) for i in range(5)]
            + [Atom("s", [Constant("c1")])]
        )
        plan = JoinPlan([Atom("r", [X, Y]), Atom("s", [X])], database)
        # s is smaller, so it goes first; r then probes on X.
        assert [step.relation for step in plan.steps] == ["s", "r"]
        assert plan.variables == (X, Y)
        assert plan.steps[1].position == 1

    def test_bound_step_probes_its_first_bound_place(self):
        database = Database([Atom("r", [Constant("a"), Constant("b")])])
        plan = JoinPlan([Atom("r", [X, Constant("b")])], database, bound=[X])
        assert plan.steps[0].position == 1
        assert list(plan.run(database, plan.slots([Constant("a")])))
        assert not list(plan.run(database, plan.slots([Constant("b")])))

    def test_binding_keeps_prebound_entries_first(self):
        database = Database([Atom("r", [Constant("a"), Constant("b")])])
        hom = find_homomorphism(
            [Atom("r", [X, Y])], database, {Z: Constant("z"), X: Constant("a")}
        )
        assert list(hom) == [Z, X, Y]


class TestEmptyRelations:
    """A disjunct with an atom over a relation that holds no rows, one
    never stored or one emptied by ``Database.discard``, is skipped
    before a plan compiles; the answers stay the reference matcher's."""

    def test_absent_and_emptied_relations(self):
        database = Database(
            [
                Atom("r", [Constant("a"), Constant("b")]),
                Atom("r", [Constant("b"), Constant("c")]),
                Atom("s", [Constant("a")]),
            ]
        )
        assert database.discard(Atom("s", [Constant("a")]))
        assert database.count("s") == database.count("u") == 0
        empty = [
            ConjunctiveQuery([X], [Atom("r", [X, Y]), Atom("u", [Y])]),
            ConjunctiveQuery([X], [Atom("s", [X]), Atom("r", [X, Y])]),
            ConjunctiveQuery([X], [Atom("s", [X])]),
        ]
        cqs = [ConjunctiveQuery([X], [Atom("r", [X, Y])]), *empty]
        expected = frozenset().union(
            *(_reference_answers(cq, database, False) for cq in cqs)
        )
        assert expected == {(Constant("a"),), (Constant("b"),)}
        assert evaluate_ucq(UnionOfConjunctiveQueries(cqs), database) == expected
        for cq in empty:
            assert _reference_answers(cq, database, False) == frozenset()
            assert evaluate_cq(cq, database) == frozenset()

    @given(
        databases(),
        st.lists(bodies(), min_size=1, max_size=3),
        st.sampled_from(sorted(ARITIES)),
        st.data(),
    )
    def test_emptied_relation_agrees(self, database, body_list, emptied, data):
        for row in database.rows(emptied):
            assert database.discard(Atom(emptied, list(row)))
        cqs = [_queries(body, data) for body in body_list]
        cqs = [cq for cq in cqs if cq.arity == cqs[0].arity]
        for certain in (False, True):
            expected = frozenset().union(
                *(_reference_answers(cq, database, certain) for cq in cqs)
            )
            got = evaluate_ucq(
                UnionOfConjunctiveQueries(cqs), database, certain=certain
            )
            assert got == expected
