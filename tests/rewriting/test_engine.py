"""Tests for repro.rewriting.engine (FORewritingEngine).

The engine compiles; answering goes through :class:`repro.api.Session`,
which owns one engine per ontology.
"""

import pytest

from repro.api import EngineOptions, Session
from repro.data.database import Database
from repro.lang.errors import RewritingBudgetExceeded
from repro.lang.parser import parse_database, parse_query
from repro.lang.terms import Constant
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.engine import FORewritingEngine
from repro.workloads.paper import EXAMPLE2_QUERY, example2

SHALLOW = EngineOptions(budget=RewritingBudget(max_depth=3))


class TestAnswering:
    def test_answers_through_hierarchy(self, hierarchy_rules, small_database):
        session = Session(hierarchy_rules)
        answers = session.answer(parse_query("q(X) :- d(X)"), small_database)
        assert answers == {
            (Constant("one"),),
            (Constant("two"),),
            (Constant("three"),),
        }

    def test_rewriting_cache_reused(self, hierarchy_rules):
        with Session(hierarchy_rules) as session:
            first = session.prepare(parse_query("q(X) :- d(X)")).result
            second = session.prepare(parse_query("q(Y) :- d(Y)")).result
        assert first is second  # same canonical UCQ -> cached object
        # The engine memoizes nothing: each compile is a fresh run.
        engine = FORewritingEngine(hierarchy_rules)
        fresh = engine.compile(parse_query("q(Z) :- d(Z)"))
        assert fresh is not engine.compile(parse_query("q(Z) :- d(Z)"))
        assert fresh.ucq == first.ucq

    def test_incomplete_rewriting_raises_by_default(self):
        session = Session(example2(), options=SHALLOW)
        with pytest.raises(RewritingBudgetExceeded):
            session.answer(EXAMPLE2_QUERY, Database())

    def test_incomplete_rewriting_allowed_when_requested(self):
        session = Session(example2(), options=SHALLOW)
        database = Database(parse_database("r(a, b)."))
        answers = session.answer(
            EXAMPLE2_QUERY, database, require_complete=False
        )
        assert answers == {()}

    def test_sql_answers_match_memory(self, hierarchy_rules, small_database):
        query = parse_query("q(X) :- d(X)")
        with Session(hierarchy_rules, small_database) as session:
            assert session.answer(query, backend="sql") == session.answer(
                query
            )

    def test_sql_for_is_executable_text(self, hierarchy_rules):
        with Session(hierarchy_rules) as session:
            sql = session.sql_for(parse_query("q(X) :- d(X)"))
        assert sql.count("SELECT") == 4
        assert "UNION" in sql
