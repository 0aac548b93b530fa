"""Tests for repro.data.sql: SQL compilation and the SQLite backend."""

import itertools

import pytest

from repro.api import Session
from repro.data.database import Database
from repro.data.evaluation import evaluate_ucq
from repro.data.sql import SQLiteBackend, cq_to_sql, datalog_to_sql, ucq_to_sql
from repro.lang.atoms import Atom
from repro.lang.parser import parse_database, parse_query, parse_ucq
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.terms import Constant, Null, Variable
from repro.lang.tgd import TGD
from repro.rewriting.datalog_target import DatalogRewriting

X, Y = Variable("X"), Variable("Y")


def backend_for(text):
    return SQLiteBackend.from_database(Database(parse_database(text)))


class TestCompilation:
    def test_single_atom_select(self):
        sql = cq_to_sql(parse_query("q(X) :- r(X, Y)"))
        assert "SELECT DISTINCT" in sql
        assert '"r"' in sql

    def test_join_condition_emitted(self):
        sql = cq_to_sql(parse_query("q(X) :- r(X, Y), s(Y)"))
        assert "WHERE" in sql and "=" in sql

    def test_constant_becomes_literal(self):
        sql = cq_to_sql(parse_query('q(X) :- r(X, "val")'))
        assert "'s:val'" in sql

    def test_quote_escaping_in_literals(self):
        query = ConjunctiveQuery([X], [Atom("r", [X, Constant("o'brien")])])
        sql = cq_to_sql(query)
        assert "o''brien" in sql

    def test_union_per_disjunct(self):
        sql = ucq_to_sql(parse_ucq("q(X) :- a(X). q(X) :- b(X)."))
        assert sql.count("UNION") == 1


class TestExecution:
    def test_matches_in_memory_evaluator(self):
        database = Database(
            parse_database("r(a, b). r(b, c). r(c, a). s(b). s(c).")
        )
        ucq = parse_ucq("q(X) :- r(X, Y), s(Y). q(X) :- s(X).")
        with SQLiteBackend.from_database(database) as backend:
            assert backend.execute_ucq(ucq) == evaluate_ucq(ucq, database)

    def test_boolean_true(self):
        with backend_for("r(a).") as backend:
            assert backend.execute_cq(parse_query("q() :- r(X)")) == {()}

    def test_boolean_false(self):
        from repro.lang.signature import Signature

        with SQLiteBackend(Signature({"r": 1, "s": 1})) as backend:
            backend.load([Atom("s", [Constant("a")])])
            assert (
                backend.execute_cq(parse_query("q() :- r(X)")) == frozenset()
            )

    def test_integer_constants_roundtrip(self):
        with backend_for("r(1, 2).") as backend:
            answers = backend.execute_cq(parse_query("q(X, Y) :- r(X, Y)"))
            assert answers == {(Constant(1), Constant(2))}

    def test_int_and_string_constants_stay_distinct(self):
        database = Database(
            [Atom("r", [Constant(1)]), Atom("r", [Constant("1")])]
        )
        with SQLiteBackend.from_database(database) as backend:
            answers = backend.execute_cq(parse_query("q(X) :- r(X)"))
            assert answers == {(Constant(1),), (Constant("1"),)}

    def test_nulls_roundtrip(self):
        n = Null("n1")
        database = Database([Atom("r", [n])])
        with SQLiteBackend.from_database(database) as backend:
            answers = backend.execute_cq(parse_query("q(X) :- r(X)"))
            assert answers == {(n,)}

    def test_repeated_variable_join_inside_atom(self):
        with backend_for("r(a, a). r(a, b).") as backend:
            answers = backend.execute_cq(parse_query("q(X) :- r(X, X)"))
            assert answers == {(Constant("a"),)}

    def test_constant_answer_position(self):
        query = ConjunctiveQuery([Constant("k"), X], [Atom("r", [X])])
        with backend_for("r(a).") as backend:
            assert backend.execute_cq(query) == {
                (Constant("k"), Constant("a"))
            }

    def test_missing_relation_table_exists_for_signature(self):
        # Tables exist for every relation in the signature, even with
        # zero facts, so rewritings over empty relations evaluate.
        from repro.lang.signature import Signature

        backend = SQLiteBackend(Signature({"r": 1, "empty": 1}))
        backend.load([Atom("r", [Constant("a")])])
        ucq = parse_ucq("q(X) :- r(X). q(X) :- empty(X).")
        assert len(backend.execute_ucq(ucq)) == 1
        backend.close()

    def test_load_counts_rows(self):
        from repro.lang.signature import Signature

        backend = SQLiteBackend(Signature({"r": 1}))
        assert backend.load([Atom("r", [Constant("a")])]) == 1
        backend.close()


class TestRandomizedAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sql_equals_memory_on_random_data(self, seed):
        import random

        rng = random.Random(seed)
        facts = []
        for _ in range(60):
            facts.append(
                Atom(
                    "e",
                    [
                        Constant(f"v{rng.randint(0, 9)}"),
                        Constant(f"v{rng.randint(0, 9)}"),
                    ],
                )
            )
        for i in range(10):
            if rng.random() < 0.5:
                facts.append(Atom("lbl", [Constant(f"v{i}")]))
        database = Database(facts)
        queries = [
            parse_query("q(X, Y) :- e(X, Y)"),
            parse_query("q(X) :- e(X, Y), e(Y, X)"),
            parse_query("q(X) :- e(X, X)"),
            parse_query("q(X, Z) :- e(X, Y), e(Y, Z), lbl(Y)"),
        ]
        with SQLiteBackend.from_database(database) as backend:
            for query in queries:
                assert backend.execute_cq(query) == evaluate_ucq(
                    query, database
                )


def _blowup(atoms):
    """``q(X) :- c1(X), ..., cn(X)`` with each ``ci`` derived three ways
    (``4^n`` UCQ disjuncts); ``u`` derives every atom, ``v`` stores
    them, ``w`` misses one."""
    rules = [
        TGD([Atom(f"a{i}_{j}", [X])], [Atom(f"c{i}", [X])])
        for i in range(1, atoms + 1)
        for j in range(1, 4)
    ]
    query = ConjunctiveQuery([X], [Atom(f"c{i}", [X]) for i in range(1, atoms + 1)])
    facts = []
    for i in range(1, atoms + 1):
        facts.append(Atom(f"a{i}_1", [Constant("u")]))
        facts.append(Atom(f"c{i}", [Constant("v")]))
        if i < atoms:
            facts.append(Atom(f"a{i}_2", [Constant("w")]))
    return rules, query, Database(facts)


class TestCompoundSelectCap:
    """SQLite caps one compound SELECT at 500 terms; longer unions are
    nested in chunks."""

    EXPECTED = {(Constant("u"),), (Constant("v"),)}

    def test_ucq_past_the_cap(self):
        _, query, database = _blowup(5)
        choices = [
            [atom] + [Atom(f"a{i}_{j}", [X]) for j in range(1, 4)]
            for i, atom in enumerate(query.body, start=1)
        ]
        ucq = UnionOfConjunctiveQueries(
            [ConjunctiveQuery([X], list(body)) for body in itertools.product(*choices)]
        )
        assert len(ucq) == 1024
        with SQLiteBackend.from_database(database) as backend:
            backend.ensure_ucq(ucq)
            assert backend.execute_ucq(ucq) == evaluate_ucq(ucq, database)
            assert backend.execute_ucq(ucq) == self.EXPECTED

    def test_session_answers_the_blowup_family_on_sql(self):
        rules, query, database = _blowup(5)
        session = Session(rules, database)
        assert session.answer(query, backend="sql") == session.answer(query)
        assert session.answer(query) == self.EXPECTED

    @pytest.mark.parametrize("where", ["aux", "goal"])
    def test_datalog_unions_past_the_cap(self, where):
        derived = "aux" if where == "aux" else "goal"
        branches = tuple(
            TGD([Atom(f"p{i}", [X])], [Atom(derived, [X])]) for i in range(600)
        )
        aux, goal = (
            (branches, (TGD([Atom("aux", [X])], [Atom("goal", [X])]),))
            if where == "aux"
            else ((), branches)
        )
        rewriting = DatalogRewriting("goal", 1, aux, goal, True, 0, 0)
        database = Database(
            Atom(f"p{i}", [Constant(f"c{i % 7}")]) for i in range(0, 600, 50)
        )
        with SQLiteBackend.from_database(database) as backend:
            backend.ensure_atoms(rewriting.base_atoms())
            answers = backend.execute_sql(datalog_to_sql(rewriting))
        assert answers == rewriting.answer(database)
        assert len(answers) == 7
