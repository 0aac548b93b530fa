"""The one-pass evaluator of nonrecursive programs against the fixpoint.

:func:`repro.data.evaluation.evaluate_nonrecursive` runs each rule once,
in dependency order, through the join kernel.  On random nonrecursive
programs -- two or three levels of derived predicates, bodies mixing
base and derived atoms, constants and repeated variables in heads and
bodies, multi-atom heads, rules stored in any order -- over data with
empty relations and labeled nulls, every derived predicate taken as the
goal must get exactly the rows of the semi-naive fixpoint of
:meth:`repro.data.datalog.DatalogProgram.materialize`.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.data.database import Database
from repro.data.datalog import DatalogProgram
from repro.data.evaluation import evaluate_nonrecursive
from repro.lang.atoms import Atom
from repro.lang.parser import parse_database, parse_program
from repro.lang.terms import Constant, Null, Variable
from repro.lang.tgd import TGD

#: Base relations; ``e`` never holds a fact.
BASE = {"b": 2, "c": 1, "d": 3, "e": 1}
#: Derived predicates by level: a rule for level n reads base relations
#: and the predicates of levels below n.
LEVELS = [{"p": 1, "p2": 2}, {"q": 2, "q2": 1}, {"r": 1}]
VARIABLES = [Variable(name) for name in ("X", "Y", "Z")]
CONSTANTS = [Constant(f"c{i}") for i in range(3)]

values = st.sampled_from(CONSTANTS + [Null("n0"), Null("n1")])


@st.composite
def databases(draw):
    """Facts over ``b``, ``c`` and ``d``, any of them possibly empty."""
    return Database(
        Atom(relation, [draw(values) for _ in range(arity)])
        for relation, arity in BASE.items()
        if relation != "e"
        for _ in range(draw(st.integers(0, 8)))
    )


@st.composite
def rules_for(draw, level):
    """1-2 rules defining each predicate of *level*, with 1-2 body
    atoms; above level 0 the first body atom reads the level below."""
    readable = sorted(BASE.items())
    for lower in LEVELS[:level]:
        readable += sorted(lower.items())
    same_level = sorted(LEVELS[level].items())
    terms = st.sampled_from(VARIABLES * 2 + CONSTANTS[:1])

    def atom(relation, arity, pool):
        return Atom(relation, [draw(pool) for _ in range(arity)])

    rules = []
    for name, arity in same_level:
        for _ in range(draw(st.integers(1, 2))):
            first = []
            if level:
                first.append(draw(st.sampled_from(sorted(LEVELS[level - 1].items()))))
            more = st.lists(
                st.sampled_from(readable),
                min_size=1 - len(first),
                max_size=2 - len(first),
            )
            body = [atom(rel, n, terms) for rel, n in first + draw(more)]
            safe = st.sampled_from(
                sorted({v for a in body for v in a.variables()}, key=str) + CONSTANTS
            )
            head = [atom(name, arity, safe)]
            if draw(st.booleans()):
                head.append(atom(*draw(st.sampled_from(same_level)), safe))
            rules.append(TGD(body, head))
    return rules


@st.composite
def programs(draw):
    """A nonrecursive program of 2-3 levels, its rules shuffled."""
    levels = draw(st.integers(2, 3))
    rules = [rule for level in range(levels) for rule in draw(rules_for(level))]
    return draw(st.permutations(rules))


@given(programs(), databases())
def test_every_derived_predicate_matches_the_fixpoint(rules, database):
    before = database.copy()
    reference = DatalogProgram(rules).materialize(database).instance
    goals = {atom.relation for rule in rules for atom in rule.head}
    for goal in sorted(goals):
        assert evaluate_nonrecursive(rules, database, goal) == reference.rows(goal)
    assert database == before


@pytest.mark.parametrize(
    "text, cycle",
    [
        ("a(X) -> p(X). p(X) -> q(X). q(X), a(X) -> p(X).", {"p", "q"}),
        (
            "edge(X, Y) -> path(X, Y). edge(X, Y), path(Y, Z) -> path(X, Z).",
            {"path"},
        ),
    ],
    ids=["cycle", "self-loop"],
)
def test_recursive_program_raises(text, cycle):
    database = Database(parse_database("a(x). edge(x, y)."))
    with pytest.raises(ValueError, match="recursive program") as error:
        evaluate_nonrecursive(parse_program(text), database, "p")
    named = str(error.value).split(": ", 1)[1].split(" -> ")
    assert set(named) == cycle


def test_derived_relations_hide_data_of_the_same_name():
    rules = parse_program("a(X) -> p(X). p(X) -> q(X).")
    # The data's p has another arity than the program's: still hidden.
    database = Database(parse_database("a(x). p(y, z). q(z). r(w)."))
    assert evaluate_nonrecursive(rules, database, "p") == {(Constant("x"),)}
    assert evaluate_nonrecursive(rules, database, "q") == {(Constant("x"),)}
    # A goal no rule defines derives nothing, whatever the data holds.
    assert evaluate_nonrecursive(rules, database, "r") == frozenset()
