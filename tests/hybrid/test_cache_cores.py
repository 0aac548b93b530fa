"""Regression tests: materialized-core rows obey the cache discipline.

Replacing an ontology must retire its core snapshots exactly like its
rewritings: ``evict_ontologies`` (and the schema-version drop) cover
the ``core`` rows of the one ``artifacts`` table.
"""

from __future__ import annotations

import sqlite3

from repro.api.cache import CacheKey, RewritingCache


def _key(name: str) -> CacheKey:
    return CacheKey(name, "abox", "1000", "v1", target="core")


K1, K2, MISSING = _key("k1"), _key("k2"), _key("missing")


def test_core_rows_survive_reopen(tmp_path):
    with RewritingCache(tmp_path) as cache:
        cache.put(K1, '{"payload": 1}', owner="ont-a")
    with RewritingCache(tmp_path) as cache:
        assert cache.get(K1, str) == '{"payload": 1}'
        assert cache.get(MISSING, str) is None


def test_counts_and_len_cover_cores(tmp_path):
    with RewritingCache(tmp_path) as cache:
        assert cache.counts() == {"ucq": 0, "datalog": 0, "cores": 0}
        cache.put(K1, "{}", owner="ont-a")
        cache.put(K2, "{}", owner="ont-b")
        assert cache.counts()["cores"] == 2
        assert len(cache) == 2
        assert dict(cache.ontologies()) == {"ont-a": 1, "ont-b": 1}


def test_evicting_an_ontology_retires_its_cores(tmp_path):
    with RewritingCache(tmp_path) as cache:
        cache.put(K1, "{}", owner="ont-a")
        cache.put(K2, "{}", owner="ont-b")
        removed = cache.evict_ontologies({"ont-a"})
        assert removed == 1
        # The replaced ontology's snapshot is gone; the kept one stays.
        assert cache.get(K2, str) is None
        assert cache.get(K1, str) == "{}"
        assert cache.counts()["cores"] == 1


def test_put_core_overwrites_in_place(tmp_path):
    with RewritingCache(tmp_path) as cache:
        cache.put(K1, "old", owner="ont-a")
        cache.put(K1, "new", owner="ont-a")
        assert cache.get(K1, str) == "new"
        assert cache.counts()["cores"] == 1


def test_schema_bump_drops_stale_core_tables(tmp_path):
    # Simulate a cache written by an older schema: rewind the recorded
    # schema_version; reopening must rebuild the schema and drop the
    # stale snapshot rather than misread it.
    with RewritingCache(tmp_path) as cache:
        cache.put(K1, "{}", owner="ont-a")
        path = cache.path
    connection = sqlite3.connect(path)
    connection.execute(
        "UPDATE meta SET value = '3' WHERE key = 'schema_version'"
    )
    connection.commit()
    connection.close()
    with RewritingCache(tmp_path) as cache:
        assert cache.get(K1, str) is None
        assert cache.counts() == {"ucq": 0, "datalog": 0, "cores": 0}


def test_core_api_never_raises_on_closed_cache(tmp_path):
    cache = RewritingCache(tmp_path)
    cache.close()
    assert cache.get(K1, str) is None
    cache.put(K1, "{}", owner="ont-a")  # silently dropped
    assert cache.counts() == {"ucq": 0, "datalog": 0, "cores": 0}
