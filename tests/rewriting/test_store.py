"""Tests for persisted rewritings.

The SQLite cache (:mod:`repro.api.cache`) is the one artifact store;
its entries are addressed by the content digests of
:mod:`repro.rewriting.store`.  A workload compiled once through
``Session(cache_dir=...)`` is served from disk by every later session.
"""

import dataclasses

from repro import obs
from repro.api import CacheKey, EngineOptions, RewritingCache, Session
from repro.api.cache import DEFAULT_CACHE_FILENAME
from repro.data.database import Database
from repro.data.evaluation import evaluate_ucq
from repro.lang.parser import parse_database, parse_query
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.rewriter import rewrite
from repro.rewriting.store import decode_rewriting, encode_rewriting
from repro.workloads.ontologies import (
    university_data,
    university_ontology,
    university_queries,
)

BUDGET = RewritingBudget.default()


def _key(rules, query):
    return CacheKey.of(rules, query, BUDGET)


class TestStoreBasics:
    def test_put_get_by_canonical_form(self, tmp_path, hierarchy_rules):
        query = parse_query("q(X) :- d(X)")
        result = rewrite(query, hierarchy_rules, BUDGET)
        with RewritingCache(tmp_path) as cache:
            cache.put(_key(hierarchy_rules, query), encode_rewriting(result))
            # Lookup with a renamed variant of the same query.
            renamed = parse_query("q(U) :- d(U)")
            entry = cache.get(_key(hierarchy_rules, renamed), decode_rewriting)
        assert entry is not None
        assert entry.ucq == result.ucq

    def test_missing_query_returns_none(self, tmp_path, hierarchy_rules):
        with RewritingCache(tmp_path) as cache:
            missing = _key(hierarchy_rules, parse_query("q(X) :- r(X)"))
            assert cache.get(missing, decode_rewriting) is None

    def test_put_replaces(self, tmp_path, hierarchy_rules):
        query = parse_query("q(X) :- d(X)")
        result = rewrite(query, hierarchy_rules, BUDGET)
        key = _key(hierarchy_rules, query)
        with RewritingCache(tmp_path) as cache:
            incomplete = dataclasses.replace(result, complete=False)
            complete = dataclasses.replace(result, complete=True)
            cache.put(key, encode_rewriting(incomplete))
            cache.put(key, encode_rewriting(complete))
            assert len(cache) == 1
            assert cache.get(key, decode_rewriting).complete


class TestPersistence:
    def test_roundtrip(self, tmp_path, hierarchy_rules):
        queries = [parse_query("q(X) :- d(X)"), parse_query("p(X) :- c(X)")]
        with Session(hierarchy_rules, cache_dir=tmp_path) as build:
            compiled = [build.prepare(query).result for query in queries]
        with RewritingCache(tmp_path) as loaded:
            assert len(loaded) == 2
            for query, original in zip(queries, compiled):
                restored = loaded.get(
                    _key(hierarchy_rules, query), decode_rewriting
                )
                assert restored is not None
                assert restored.ucq == original.ucq
                assert restored.complete == original.complete

    def test_loaded_rewriting_answers_correctly(
        self, tmp_path, hierarchy_rules
    ):
        query = parse_query("q(X) :- d(X)")
        with Session(hierarchy_rules, cache_dir=tmp_path) as build:
            build.prepare(query).result
        database = Database(parse_database("a(v). c(w)."))
        with obs.capture() as trace:
            with Session(
                hierarchy_rules, database, cache_dir=tmp_path
            ) as deployed:
                answers = deployed.answer(query)
        expected = evaluate_ucq(
            rewrite(query, hierarchy_rules).ucq, database
        )
        assert answers == expected
        assert trace.counter("engine.disk_hits") == 1
        assert trace.spans("engine.rewrite") == []

    def test_incomplete_flag_persisted(self, tmp_path):
        from repro.workloads.paper import EXAMPLE2_QUERY, example2

        options = EngineOptions(
            budget=RewritingBudget(max_depth=3, strict=False)
        )
        with Session(example2(), cache_dir=tmp_path, options=options) as build:
            assert not build.prepare(EXAMPLE2_QUERY).result.complete
        with obs.capture() as trace:
            with Session(
                example2(), cache_dir=tmp_path, options=options
            ) as deployed:
                assert not deployed.prepare(EXAMPLE2_QUERY).result.complete
        assert trace.counter("engine.disk_hits") == 1

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / DEFAULT_CACHE_FILENAME
        path.write_text("not a store\n")
        with RewritingCache(tmp_path) as cache:
            # Nothing is read from the junk file: it counts as an open
            # error and the handle starts on a fresh, empty file.
            assert cache.available
            assert cache.stats().errors == 1
            assert len(cache) == 0
        # The rejected file is moved aside untouched, never overwritten.
        assert path.with_suffix(".corrupt").read_text() == "not a store\n"

    def test_university_workload_roundtrip(self, tmp_path):
        rules = university_ontology()
        queries = [query for _, query in university_queries()]
        data = university_data(40, 1)
        with Session(rules, cache_dir=tmp_path) as build:
            for query in queries:
                build.prepare(query).result
        with Session(rules, data) as live:
            expected = [live.answer(query) for query in queries]
        with obs.capture() as trace:
            with Session(rules, data, cache_dir=tmp_path) as deployed:
                assert deployed.warm_up() == len(queries)
                answers = [deployed.answer(query) for query in queries]
        assert answers == expected
        assert trace.spans("engine.rewrite") == []
        assert trace.counter("engine.disk_hits") == len(queries)
