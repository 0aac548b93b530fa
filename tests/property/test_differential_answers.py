"""Differential property suite: rewriting vs chase vs SQL.

Three independently implemented answering paths must agree on every
input where all of them are exact:

* ``Session.answer``                  -- FO rewriting + in-memory eval;
* chase certain answers               -- restricted chase + filtered eval;
* ``Session.answer(backend="sql")``   -- FO rewriting compiled to SQLite.

The generated programs are *stratified*: every rule's body relations
strictly precede its head relation in a fixed relation order.  Such
programs are non-recursive, hence SWR (so the rewriting terminates and
is exact) and weakly acyclic (so the chase reaches a fixpoint) -- both
sides of the differential are total, and any disagreement is a real
bug in one of the engines.

Across its tests this module checks well over 200 generated
program/database/query triples per run (explicit ``max_examples``
below, independent of the active hypothesis profile).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.api import EngineOptions, Session
from repro.chase.certain import certain_answers
from repro.core.swr import is_swr
from repro.data.database import Database
from repro.data.sql import SQLiteBackend
from repro.lang.atoms import Atom
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.signature import Signature
from repro.lang.terms import Constant, Variable
from repro.lang.tgd import TGD
from repro.rewriting.budget import RewritingBudget

# --------------------------------------------------------------------- #
# Strategies                                                             #
# --------------------------------------------------------------------- #

# Relations in stratification order: a rule's body may only use
# relations strictly earlier than its head relation.
ORDER = ("a", "r", "b", "s", "c")
ARITY = {"a": 1, "r": 2, "b": 1, "s": 2, "c": 1}

BODY_VARS = [Variable(f"V{i}") for i in range(4)]
EXIST_VARS = [Variable("E0"), Variable("E1")]
QUERY_VARS = [Variable(f"X{i}") for i in range(3)]
CONSTANTS = [Constant("c1"), Constant("c2"), Constant("c3")]


@st.composite
def stratified_tgds(draw):
    """One TGD whose body relations strictly precede its head relation."""
    head_index = draw(st.integers(1, len(ORDER) - 1))
    body = []
    for _ in range(draw(st.integers(1, 2))):
        relation = ORDER[draw(st.integers(0, head_index - 1))]
        terms = [
            draw(st.sampled_from(BODY_VARS))
            for _ in range(ARITY[relation])
        ]
        body.append(Atom(relation, terms))
    body_vars = sorted(
        {v for atom in body for v in atom.variables()},
        key=lambda v: v.name,
    )
    head_relation = ORDER[head_index]
    head_terms = [
        draw(st.sampled_from(body_vars + EXIST_VARS))
        for _ in range(ARITY[head_relation])
    ]
    # Keep the rule connected: at least one frontier variable.
    if not (set(head_terms) & set(body_vars)):
        head_terms[0] = body_vars[0]
    return TGD(body, [Atom(head_relation, head_terms)])


@st.composite
def programs(draw):
    return draw(st.lists(stratified_tgds(), min_size=1, max_size=4))


@st.composite
def databases(draw):
    facts = []
    for _ in range(draw(st.integers(0, 8))):
        relation = draw(st.sampled_from(ORDER))
        terms = [
            draw(st.sampled_from(CONSTANTS))
            for _ in range(ARITY[relation])
        ]
        facts.append(Atom(relation, terms))
    return Database(facts)


@st.composite
def queries(draw, max_atoms: int = 2):
    body = []
    for _ in range(draw(st.integers(1, max_atoms))):
        relation = draw(st.sampled_from(ORDER))
        terms = [
            draw(st.sampled_from(QUERY_VARS + CONSTANTS[:1]))
            for _ in range(ARITY[relation])
        ]
        body.append(Atom(relation, terms))
    body_vars = sorted(
        {v for atom in body for v in atom.variables()},
        key=lambda v: v.name,
    )
    answer_count = draw(st.integers(0, min(2, len(body_vars))))
    answers = body_vars[:answer_count]
    return ConjunctiveQuery(answers, body)


@st.composite
def ucq_queries(draw):
    first = draw(queries(max_atoms=1))
    disjuncts = [first]
    for _ in range(draw(st.integers(1, 2))):
        candidate = draw(queries(max_atoms=2))
        if candidate.arity == first.arity:
            disjuncts.append(candidate)
    return UnionOfConjunctiveQueries.of(
        disjuncts[0]
    ) if len(disjuncts) == 1 else UnionOfConjunctiveQueries(disjuncts)


def sqlite_backend(rules, database, query) -> SQLiteBackend:
    """A backend whose schema covers rules, data and query relations."""
    signature = Signature(dict(database.signature))
    for rule in rules:
        signature.observe_tgd(rule)
    signature.observe_query(query)
    backend = SQLiteBackend(signature)
    backend.load(database.facts())
    return backend


# --------------------------------------------------------------------- #
# Differential properties                                                #
# --------------------------------------------------------------------- #


@settings(max_examples=120, deadline=None)
@given(programs(), databases(), queries())
def test_rewriting_chase_and_sql_agree(rules, database, query):
    """The three answering paths agree on stratified (SWR) inputs."""
    assert is_swr(rules).is_swr or not all(r.is_simple() for r in rules)
    oracle = certain_answers(query, rules, database, max_steps=20_000)
    with Session(rules, database) as session:
        via_rewriting = session.answer(query)
        via_sql = session.answer(query, backend="sql")
    assert via_rewriting == oracle
    assert via_sql == oracle


@settings(max_examples=60, deadline=None)
@given(programs(), databases(), ucq_queries())
def test_ucq_differential(rules, database, ucq):
    """UCQ inputs: disjunct-level union answers match on every path."""
    oracle = certain_answers(ucq, rules, database, max_steps=20_000)
    with Session(rules, database) as session:
        via_rewriting = session.answer(ucq)
        via_sql = session.answer(ucq, backend="sql")
    assert via_rewriting == oracle
    assert via_sql == oracle


@settings(max_examples=40, deadline=None)
@given(programs(), databases(), queries())
def test_budgeted_rewriting_is_sound_subset(rules, database, query):
    """A budget-truncated rewriting only ever loses answers."""
    oracle = certain_answers(query, rules, database, max_steps=20_000)
    tight = EngineOptions(
        budget=RewritingBudget(max_depth=1, max_cqs=100_000)
    )
    with Session(rules, database, options=tight) as session:
        partial = session.answer(query, require_complete=False)
        assert partial <= oracle
        partial_sql = session.answer(
            query, backend="sql", require_complete=False
        )
    assert partial_sql <= oracle
    assert partial == partial_sql
