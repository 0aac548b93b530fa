"""Warm-up from the persistent tier, and the cache_stats/close fixes."""

import pytest

from repro import obs
from repro.api import EngineOptions, RewritingCache, Session
from repro.lang.parser import parse_program
from repro.rewriting.budget import RewritingBudget

PROGRAM = (
    "R1: professor(X) -> teaches(X, Y). "
    "R2: assoc_prof(X) -> professor(X)."
)
Q1 = "q(X) :- teaches(X, Y)"
Q2 = "q(X) :- professor(X)"


@pytest.fixture
def rules():
    return parse_program(PROGRAM)


class TestWarmUp:
    def test_warms_every_stored_entry_with_zero_rewrites(
        self, rules, tmp_path
    ):
        with Session(rules, cache_dir=tmp_path) as cold:
            cold.prepare(Q1).result
            cold.prepare(Q2).result
            cold.prepare(Q1, target="datalog").datalog
        with obs.capture() as trace:
            with Session(rules, cache_dir=tmp_path) as warm:
                assert warm.warm_up() == 3
                # Steady state: the warmed queries answer from memory.
                warm.prepare(Q1).result
                warm.prepare(Q2).result
        assert trace.counter("rewrite.cqs_generated") == 0
        assert trace.counter("engine.disk_hits") == 3

    def test_limit_caps_the_warmed_entries(self, rules, tmp_path):
        with Session(rules, cache_dir=tmp_path) as cold:
            cold.prepare(Q1).result
            cold.prepare(Q2).result
        with Session(rules, cache_dir=tmp_path) as warm:
            assert warm.warm_up(limit=1) == 1

    def test_noop_without_persistent_cache(self, rules):
        with Session(rules) as session:
            assert session.warm_up() == 0

    def test_other_ontologies_and_budgets_not_warmed(self, rules, tmp_path):
        other = parse_program("S1: a(X) -> b(X).")
        with Session(other, cache_dir=tmp_path) as foreign:
            foreign.prepare("q(X) :- b(X)").result
        tight = EngineOptions(
            budget=RewritingBudget(max_depth=3)
        )
        with Session(rules, cache_dir=tmp_path, options=tight) as budgeted:
            budgeted.prepare(Q1).result
        # Same ontology, default budget: nothing stored for this context.
        with Session(rules, cache_dir=tmp_path) as session:
            assert session.warm_up() == 0

    def test_stored_queries_survive_empty_text_rows(self, rules, tmp_path):
        # Rows without query text are served for lookups but are not
        # enumerable; warm-up must skip them, not crash.
        with Session(rules, cache_dir=tmp_path) as cold:
            cold.prepare(Q1).result
        import sqlite3

        with sqlite3.connect(tmp_path / "rewritings.sqlite") as connection:
            connection.execute("UPDATE artifacts SET query_text = ''")
        with Session(rules, cache_dir=tmp_path) as warm:
            assert warm.warm_up() == 0


class TestCacheStatsBothTables:
    def test_memory_and_persistent_report_both_targets(
        self, rules, tmp_path
    ):
        with Session(rules, cache_dir=tmp_path) as session:
            session.prepare(Q1).result
            session.prepare(Q2).result
            session.prepare(Q1, target="datalog").datalog
            stats = session.cache_stats()
        assert stats["memory"]["ucq_entries"] == 2
        assert stats["memory"]["datalog_entries"] == 1
        assert stats["memory"]["size"] == 3
        persistent = stats["persistent"]
        assert persistent["ucq_entries"] == 2
        assert persistent["datalog_entries"] == 1
        assert persistent["entries"] == 3

    def test_counts_never_raise_on_closed_cache(self, tmp_path):
        cache = RewritingCache(tmp_path)
        cache.close()
        assert cache.counts() == {"ucq": 0, "datalog": 0, "cores": 0}
        assert cache.stored_queries() == []


class TestCloseIdempotence:
    def test_close_tolerates_externally_closed_backend(self, rules):
        from repro.data.database import Database
        from repro.lang.parser import parse_database

        data = Database(parse_database("professor(ada)."))
        session = Session(rules, data)
        backend = session.sql_backend()
        backend.close()  # someone else released it first
        session.close()  # must not raise
        assert backend.closed

    def test_double_close_is_a_noop(self, rules):
        session = Session(rules)
        session.close()
        session.close()
