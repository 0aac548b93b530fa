"""Differential property suite for incremental hybrid maintenance.

Over random insert/delete tapes on stratified (hence SWR and weakly
acyclic) programs, three independently implemented answering paths
must agree after every mutation:

* the incrementally maintained core (semi-naive insert, DRed delete);
* a full re-chase of the mutated base (the oracle);
* pure FO rewriting over the mutated base.

The generated programs reuse the stratified strategies of
:mod:`tests.property.test_differential_answers`, so both the chase and
the rewriting are total and exact -- any disagreement is a real bug in
the maintenance algebra.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.api import EngineOptions, Session
from repro.chase.certain import certain_answers
from repro.data.database import Database
from repro.data.evaluation import evaluate_ucq
from repro.hybrid import MaterializedCore
from repro.lang.atoms import Atom
from tests.property.test_differential_answers import (
    ARITY,
    CONSTANTS,
    ORDER,
    databases,
    programs,
    queries,
)

# --------------------------------------------------------------------- #
# Strategies                                                             #
# --------------------------------------------------------------------- #


@st.composite
def base_facts(draw, min_size: int = 1, max_size: int = 3):
    facts = []
    for _ in range(draw(st.integers(min_size, max_size))):
        relation = draw(st.sampled_from(ORDER))
        terms = [
            draw(st.sampled_from(CONSTANTS))
            for _ in range(ARITY[relation])
        ]
        facts.append(Atom(relation, terms))
    return facts


@st.composite
def mutation_tapes(draw, max_ops: int = 4):
    """A sequence of ('insert'|'delete', facts) mutation steps."""
    tape = []
    for _ in range(draw(st.integers(1, max_ops))):
        op = draw(st.sampled_from(("insert", "delete")))
        tape.append((op, draw(base_facts())))
    return tape


def apply_to_reference(db: Database, op: str, facts) -> None:
    for fact in facts:
        if op == "insert":
            db.add(fact)
        else:
            db.discard(fact)


# --------------------------------------------------------------------- #
# Properties                                                             #
# --------------------------------------------------------------------- #


@settings(max_examples=50, deadline=None)
@given(programs(), databases(), mutation_tapes(), queries())
def test_maintained_core_tracks_rechase_and_rewriting(
    rules, database, tape, query
):
    """After every mutation: core == full re-chase == pure rewriting."""
    core = MaterializedCore(rules, database)
    reference = database.copy()
    session = Session(rules)
    for op, facts in tape:
        if op == "insert":
            core.apply_insert(facts)
        else:
            core.apply_delete(facts)
        apply_to_reference(reference, op, facts)
        assert core.check_consistency() == []
        via_core = evaluate_ucq(query, core.instance, certain=True)
        oracle = certain_answers(query, rules, reference, max_steps=20_000)
        via_rewriting = session.answer(query, reference)
        assert via_core == oracle, f"core diverged after {op}"
        assert via_rewriting == oracle


@settings(max_examples=30, deadline=None)
@given(programs(), databases(), mutation_tapes(max_ops=3), queries())
def test_session_materialize_tracks_mutations(rules, database, tape, query):
    """The session-level materialize path agrees with a fresh oracle."""
    options = EngineOptions(hybrid="materialize")
    with Session(rules, database.copy(), options=options) as session:
        session.answer(query)  # force the core build
        reference = database.copy()
        for op, facts in tape:
            getattr(session, op)(facts)
            apply_to_reference(reference, op, facts)
        oracle = certain_answers(query, rules, reference, max_steps=20_000)
        assert session.answer(query) == oracle
        assert session.answer(query, backend="sql") == oracle


@settings(max_examples=30, deadline=None)
@given(programs(), databases(), mutation_tapes())
def test_maintenance_is_history_independent(rules, database, tape):
    """The maintained instance matches a core built fresh at the end."""
    core = MaterializedCore(rules, database)
    reference = database.copy()
    for op, facts in tape:
        if op == "insert":
            core.apply_insert(facts)
        else:
            core.apply_delete(facts)
        apply_to_reference(reference, op, facts)
    assert set(core.base.facts()) == set(reference.facts())
    from repro.hybrid.maintain import _certain_shape

    fresh = MaterializedCore(rules, reference)
    assert _certain_shape(core.instance) == _certain_shape(fresh.instance)
