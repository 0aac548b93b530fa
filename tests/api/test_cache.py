"""Persistent rewriting cache: keying, invalidation, robustness.

The contract under test: a cache entry is served only for the exact
(ontology, query, budget, engine-version) it was compiled for, and a
broken cache file degrades to recomputation -- never to a wrong answer
or a crash.
"""

import sqlite3

import pytest

from repro import obs
from repro.api import CACHE_SCHEMA_VERSION, CacheKey, RewritingCache, Session
from repro.api.cache import DEFAULT_CACHE_FILENAME
from repro.lang.parser import parse_program, parse_query
from repro.rewriting.budget import RewritingBudget

PROGRAM = """
R1: s(Y1, Y2, Y3), t(Y4) -> r(Y1, Y3).
R2: v(Y1, Y2), q0(Y2) -> s(Y1, Y3, Y2).
R3: r(Y1, Y2) -> v(Y1, Y2).
"""

QUERY = "q(X) :- r(X, Y)"


@pytest.fixture
def rules():
    return parse_program(PROGRAM)


def _compile(rules, tmp_path, **session_kwargs):
    """One compilation under a fresh session; returns (ucq, counters)."""
    with obs.capture() as trace:
        with Session(rules, cache_dir=tmp_path, **session_kwargs) as session:
            ucq = session.prepare(QUERY).ucq
    return ucq, trace


class TestWarmPath:
    def test_second_session_hits_disk(self, rules, tmp_path):
        cold_ucq, cold = _compile(rules, tmp_path)
        warm_ucq, warm = _compile(rules, tmp_path)
        assert warm_ucq == cold_ucq
        assert cold.counter("engine.disk_misses") == 1
        assert cold.counter("api.cache.writes") == 1
        assert warm.counter("engine.disk_hits") == 1
        assert warm.counter("rewrite.cqs_generated") == 0

    def test_renamed_query_shares_the_entry(self, rules, tmp_path):
        _compile(rules, tmp_path)
        with Session(rules, cache_dir=tmp_path) as session:
            with obs.capture() as trace:
                session.prepare("q(A) :- r(A, B)").result
        assert trace.counter("engine.disk_hits") == 1


class TestInvalidation:
    def test_ontology_edit_forces_recompile(self, rules, tmp_path):
        _compile(rules, tmp_path)
        edited = parse_program(PROGRAM + "R4: w(Y1) -> t(Y1).")
        _, trace = _compile(edited, tmp_path)
        assert trace.counter("engine.disk_hits") == 0
        assert trace.counter("engine.disk_misses") == 1
        assert trace.counter("rewrite.cqs_generated") > 0
        # Both compilations live side by side in the one file.
        with RewritingCache(tmp_path) as cache:
            assert len(cache) == 2
            assert len(dict(cache.ontologies())) == 2

    def test_budget_change_forces_recompile(self, rules, tmp_path):
        from repro.api import EngineOptions

        _compile(rules, tmp_path)
        _, trace = _compile(
            rules,
            tmp_path,
            options=EngineOptions(
                budget=RewritingBudget(max_depth=7)
            ),
        )
        assert trace.counter("engine.disk_hits") == 0
        assert trace.counter("rewrite.cqs_generated") > 0

    def test_engine_version_bump_forces_recompile(
        self, rules, tmp_path, monkeypatch
    ):
        import repro.rewriting.engine as engine_module

        _compile(rules, tmp_path)
        monkeypatch.setattr(engine_module, "ENGINE_VERSION", "test-bump")
        _, trace = _compile(rules, tmp_path)
        assert trace.counter("engine.disk_hits") == 0
        assert trace.counter("rewrite.cqs_generated") > 0

    def test_evict_ontologies_reclaims_stale_entries(self, rules, tmp_path):
        _compile(rules, tmp_path)
        edited = parse_program(PROGRAM + "R4: w(Y1) -> t(Y1).")
        _compile(edited, tmp_path)
        with Session(rules, cache_dir=tmp_path) as session:
            keep = {session.ontology_digest}
            assert session.cache.evict_ontologies(keep) == 1
            assert len(session.cache) == 1


class TestRobustness:
    def test_corrupt_file_degrades_to_recompute(self, rules, tmp_path):
        cold_ucq, _ = _compile(rules, tmp_path)
        path = tmp_path / DEFAULT_CACHE_FILENAME
        path.write_bytes(b"this is not a sqlite database, sorry")
        ucq, trace = _compile(rules, tmp_path)
        assert ucq == cold_ucq
        assert trace.counter("rewrite.cqs_generated") > 0
        # The broken file was quarantined, not deleted, and the fresh
        # cache is immediately usable again.
        assert path.with_suffix(".corrupt").exists()
        _, warm = _compile(rules, tmp_path)
        assert warm.counter("engine.disk_hits") == 1

    def test_torn_entry_is_dropped_not_fatal(self, rules, tmp_path):
        _compile(rules, tmp_path)
        path = tmp_path / DEFAULT_CACHE_FILENAME
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE artifacts "
                "SET payload = json_set(payload, '$.ucq', 'not a ) ucq')"
            )
            connection.commit()
        ucq, trace = _compile(rules, tmp_path)
        assert trace.counter("api.cache.errors") == 1
        assert trace.counter("rewrite.cqs_generated") > 0
        # The undecodable row was evicted; the recompile re-stored it.
        _, warm = _compile(rules, tmp_path)
        assert warm.counter("engine.disk_hits") == 1

    def test_unwritable_directory_disables_cache(self, rules, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache dir should be")
        ucq, trace = _compile(rules, blocked / "cache")
        assert ucq  # answering still works, cache is simply off
        assert trace.counter("engine.disk_misses") >= 1

    def test_schema_version_mismatch_resets_the_file(self, rules, tmp_path):
        _compile(rules, tmp_path)
        path = tmp_path / DEFAULT_CACHE_FILENAME
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
            )
            connection.commit()
        with RewritingCache(tmp_path) as cache:
            assert len(cache) == 0  # dropped, not misread

    def test_v4_file_upgrades_to_one_empty_table(self, rules, tmp_path):
        # The v4 layout: one table per artifact kind, a row in each.
        path = tmp_path / DEFAULT_CACHE_FILENAME
        with sqlite3.connect(path) as connection:
            connection.executescript(
                """
                CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
                INSERT INTO meta VALUES ('schema_version', '4');
                CREATE TABLE rewritings (
                    cache_key TEXT PRIMARY KEY, ontology_digest TEXT,
                    ucq TEXT, query_text TEXT);
                CREATE TABLE datalog_rewritings (
                    cache_key TEXT PRIMARY KEY, ontology_digest TEXT,
                    payload TEXT, query_text TEXT);
                CREATE TABLE materialized_cores (
                    cache_key TEXT PRIMARY KEY, ontology_digest TEXT,
                    payload TEXT);
                INSERT INTO rewritings VALUES ('k', 'o', 'q(X) :- r(X, Y)', '');
                INSERT INTO datalog_rewritings VALUES ('k', 'o', '{}', '');
                INSERT INTO materialized_cores VALUES ('k', 'o', '{}');
                """
            )
        with RewritingCache(tmp_path) as cache:
            assert len(cache) == 0
        with sqlite3.connect(path) as connection:
            tables = {
                name
                for (name,) in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            version = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        assert tables == {"meta", "artifacts"}
        assert version == (str(CACHE_SCHEMA_VERSION),)
        _, cold = _compile(rules, tmp_path)
        assert cold.counter("api.cache.writes") == 1
        _, warm = _compile(rules, tmp_path)
        assert warm.counter("engine.disk_hits") == 1

    def test_get_put_roundtrip_and_stats(self, rules, tmp_path):
        query = parse_query(QUERY)
        budget = RewritingBudget.default()
        from repro.rewriting.rewriter import rewrite
        from repro.rewriting.store import decode_rewriting, encode_rewriting

        result = rewrite(query, rules, budget)
        key = CacheKey.of(rules, query, budget)
        with RewritingCache(tmp_path) as cache:
            assert cache.get(key, decode_rewriting) is None
            cache.put(key, encode_rewriting(result))
            stored = cache.get(key, decode_rewriting)
            assert stored is not None
            assert stored.ucq == result.ucq
            assert stored.complete == result.complete
            stats = cache.stats()
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
