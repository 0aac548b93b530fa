"""Statically-empty disjuncts: the ABox vocabulary and the differential.

A rewritten disjunct with an atom over a relation that holds no facts
matches nothing.  :func:`supported_relations` names the relations the
virtual ABox can hold facts over (RL102 and RL106 report the others),
and the in-memory evaluator skips such a disjunct on every session.
The soundness contract is the differential one: in-memory == SQL ==
chase, on the ghost project below (one rule whose body no mapping
feeds) and after a mutation.

The insert regressions failed when a session could opt into static
pruning (``EngineOptions(prune_empty=True)``): the pruned vocabulary was
read once from the caller's database, and an ``insert`` never reached
it, so a new relation's answers were dropped on memory and on SQL.
"""

import pytest

from repro.api import Session
from repro.chase.certain import certain_answers_via_chase
from repro.checkers import supported_relations
from repro.data import evaluation
from repro.data.database import Database
from repro.lang.parser import parse_database, parse_program, parse_query
from repro.lang.terms import Constant
from repro.obda.mappings import parse_mappings

ONTOLOGY = parse_program(
    "r_prof: professor(X) -> person(X).\n"
    "r_stud: student(X) -> person(X).\n"
    "r_ghost: phantom(X), ledger(X) -> person(X).\n"
)
MAPPINGS = parse_mappings(
    "prof_row(X, D) ~> professor(X).\n"
    "stud_row(X) ~> student(X).\n"
)
DATA = Database(
    parse_database(
        "prof_row(ada, cs).\nprof_row(bob, math).\nstud_row(eve).\n"
    )
)
QUERY = parse_query("q(X) :- person(X)")


def _answers(*names):
    return frozenset((Constant(name),) for name in names)


def _three_ways(session, query):
    """Memory, SQL and chase answers of *query*; they must agree."""
    memory = session.prepare(query).answer()
    assert session.prepare(query).answer(backend="sql") == memory
    assert session.answer_chase(query) == memory
    return memory


class TestSupportedRelations:
    def test_mapping_targets(self):
        assert supported_relations(MAPPINGS, DATA) == {"professor", "student"}

    def test_mappings_filtered_by_empty_sources(self):
        sparse = Database(parse_database("prof_row(ada, cs).\n"))
        assert supported_relations(MAPPINGS, sparse) == {"professor"}

    def test_mappings_without_source_keep_all_targets(self):
        assert supported_relations(MAPPINGS, None) == {"professor", "student"}

    def test_identity_uses_nonempty_relations(self):
        db = Database(parse_database("person(ada).\n"))
        assert supported_relations(None, db) == {"person"}

    def test_neither_is_an_error(self):
        with pytest.raises(ValueError):
            supported_relations(None, None)


class TestDifferentialSoundness:
    """memory == SQL == chase on the ghost project, default options."""

    @pytest.fixture
    def session(self):
        with Session(ONTOLOGY, DATA, mappings=MAPPINGS) as session:
            yield session

    def test_all_three_paths_agree(self, session):
        # The rewriting keeps the phantom/ledger disjunct (and the one
        # over person, which no mapping targets); neither may change
        # the answers.
        relations = {
            atom.relation
            for cq in session.prepare(QUERY).ucq
            for atom in cq.body
        }
        assert {"person", "phantom", "ledger"} <= relations
        assert _three_ways(session, QUERY) == _answers("ada", "bob", "eve")

    def test_strictly_fewer_disjuncts(self, session, monkeypatch):
        # Only the disjuncts whose relations all hold facts compile a
        # join plan: professor(X) and student(X), not person(X) or
        # phantom(X), ledger(X).
        session.abox()
        prepared = session.prepare(QUERY)
        compiled = []
        plan = evaluation.JoinPlan

        def counting(atoms, *args, **kwargs):
            compiled.append(tuple(atom.relation for atom in atoms))
            return plan(atoms, *args, **kwargs)

        monkeypatch.setattr(evaluation, "JoinPlan", counting)
        assert prepared.answer() == _answers("ada", "bob", "eve")
        assert sorted(compiled) == [("professor",), ("student",)]
        assert len(compiled) < len(prepared.ucq)

    def test_all_pruned_query_is_empty_everywhere(self, session):
        ghost = parse_query("g(X) :- phantom(X)")
        assert _three_ways(session, ghost) == frozenset()

    def test_all_pruned_sql_text_is_arity_correct(self, session):
        # The SQL text is the plain rewriting's, whatever the data: one
        # column per answer variable, and no row on the mirror.
        prepared = session.prepare(parse_query("g(X) :- phantom(X)"))
        assert prepared.sql == 'SELECT DISTINCT t0.c1 AS a0 FROM "phantom" AS t0'
        mirror = session.sql_backend()
        mirror.ensure_ucq(prepared.ucq)
        assert mirror.execute_sql(prepared.sql) == frozenset()

    def test_explicit_database_pruned_against_itself(self, session):
        # A passed database bypasses the mappings: only its own
        # relations hold facts.
        db = Database(parse_database("student(zoe).\n"))
        expected = certain_answers_via_chase(QUERY, ONTOLOGY, db).answers
        assert expected == _answers("zoe")
        assert session.prepare(QUERY).answer(db) == expected
        with Session(ONTOLOGY, db) as direct:
            assert _three_ways(direct, QUERY) == expected


class TestInsertRegression:
    """An insert over a relation the source never held is answered."""

    def test_identity_mapping_insert_of_a_new_relation(self):
        data = Database(parse_database("a(c1)."))
        with Session(parse_program("a(X) -> b(X)."), data) as session:
            query = parse_query("q(X) :- d(X)")
            assert _three_ways(session, query) == frozenset()
            session.insert("d(k).")
            assert _three_ways(session, query) == _answers("k")
            # The caller's database is never written.
            assert data.count("d") == 0

    def test_mapped_insert_of_an_unmapped_relation(self):
        rules = parse_program(
            "professor(X) -> person(X).\nstudent(X) -> person(X).\n"
        )
        mappings = parse_mappings("prof_row(X, D) ~> professor(X).\n")
        data = Database(parse_database("prof_row(ada, cs)."))
        with Session(rules, data, mappings=mappings) as session:
            assert _three_ways(session, QUERY) == _answers("ada")
            session.insert("student(eve).")
            assert _three_ways(session, QUERY) == _answers("ada", "eve")
