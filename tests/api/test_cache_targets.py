"""Target-aware caching: keying, warm paths, cross-process stability.

The ``target`` field joined :class:`CacheKey` with the Datalog target:
UCQ and Datalog artifacts for the same (ontology, query, budget) live
under distinct keys of one table, a warm cache serves both targets
with zero fresh rewrites, and ``target="auto"`` resolves to
the same concrete target in every interpreter process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.api import CacheKey, EngineOptions, RewritingCache, Session
from repro.lang.parser import parse_program, parse_query
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.datalog_target import rewrite_datalog
from repro.rewriting.store import decode_rewriting, encode_rewriting

REPO_ROOT = Path(__file__).resolve().parents[2]

PROGRAM = """
R1: a1(X) -> c1(X).
R2: a2(X) -> c1(X).
R3: b1(X) -> c2(X).
R4: b2(X) -> c2(X).
"""

QUERY = "q(X) :- c1(X), c2(X)"


@pytest.fixture
def rules():
    return parse_program(PROGRAM)


class TestKeying:
    def test_targets_never_collide(self, rules):
        budget = RewritingBudget.default()
        query = parse_query(QUERY)
        ucq_key = CacheKey.of(rules, query, budget)
        datalog_key = CacheKey.of(rules, query, budget, target="datalog")
        assert ucq_key.target == "ucq"
        assert datalog_key.target == "datalog"
        assert ucq_key.combined != datalog_key.combined
        # Same content digests -- only the target discriminates.
        assert ucq_key.ontology_digest == datalog_key.ontology_digest
        assert ucq_key.query_digest == datalog_key.query_digest

    def test_datalog_roundtrip_through_disk(self, rules, tmp_path):
        budget = RewritingBudget.default()
        query = parse_query(QUERY)
        rewriting = rewrite_datalog(query, rules, budget)
        key = CacheKey.of(rules, query, budget, target="datalog")
        with RewritingCache(tmp_path) as cache:
            assert cache.get(key, decode_rewriting) is None
            cache.put(key, encode_rewriting(rewriting))
            served = cache.get(key, decode_rewriting)
            # The entry must not be served under the ucq key.
            ucq_key = CacheKey.of(rules, query, budget)
            assert cache.get(ucq_key, decode_rewriting) is None
        assert served is not None
        assert str(served) == str(rewriting)
        assert served.to_sql() == rewriting.to_sql()

    def test_len_and_eviction_cover_both_tables(self, rules, tmp_path):
        # Both targets' rows live in the one artifacts table.
        budget = RewritingBudget.default()
        query = parse_query(QUERY)
        with Session(rules, cache_dir=tmp_path) as session:
            session.prepare(QUERY).result
            session.prepare(QUERY, target="datalog").datalog
        with RewritingCache(tmp_path) as cache:
            assert len(cache) == 2
            stored = list(cache.ontologies())
            assert len(stored) == 1
            assert stored[0][1] == 2  # both targets under one ontology
            removed = cache.evict_ontologies(keep=frozenset())
            assert removed == 2
            assert len(cache) == 0


class TestWarmPath:
    def test_warm_cache_serves_both_targets(self, rules, tmp_path):
        with Session(rules, cache_dir=tmp_path) as session:
            session.prepare(QUERY).result
            session.prepare(QUERY, target="datalog").datalog
        with obs.capture() as trace:
            with Session(rules, cache_dir=tmp_path) as session:
                session.prepare(QUERY).result
                session.prepare(QUERY, target="datalog").datalog
        assert trace.counter("engine.disk_hits") == 2
        assert trace.counter("rewrite.cqs_generated") == 0
        assert trace.counter("datalog_target.rules_emitted") == 0

    def test_warm_datalog_answers_match_cold(self, rules, tmp_path):
        from repro.data.database import Database
        from repro.lang.atoms import Atom
        from repro.lang.terms import Constant

        database = Database(
            [
                Atom("a1", (Constant("u"),)),
                Atom("b2", (Constant("u"),)),
                Atom("a2", (Constant("v"),)),
            ]
        )
        with Session(
            rules,
            cache_dir=tmp_path,
            options=EngineOptions(target="datalog"),
        ) as session:
            cold = session.answer(QUERY, database)
        with Session(
            rules,
            cache_dir=tmp_path,
            options=EngineOptions(target="datalog"),
        ) as session:
            warm = session.answer(QUERY, database)
        assert warm == cold == frozenset({(Constant("u"),)})


class TestAutoStability:
    def _resolve_in_subprocess(self, hash_seed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        script = (
            "from repro.lang.parser import parse_program, parse_query\n"
            "from repro.rewriting.engine import FORewritingEngine\n"
            f"rules = parse_program({PROGRAM!r})\n"
            f"query = parse_query({QUERY!r})\n"
            "engine = FORewritingEngine(rules, target='auto')\n"
            "import sys; sys.stdout.write(engine.resolve_target(query))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return result.stdout

    def test_auto_choice_stable_across_processes(self):
        first = self._resolve_in_subprocess("1")
        second = self._resolve_in_subprocess("31337")
        assert first == second
        assert first in ("ucq", "datalog")

    def test_auto_resolution_memoized_and_counted(self, rules):
        # The engine keeps no memo; the handle resolves `auto` once, and
        # a renamed prepare of the same query is served by that handle.
        with obs.capture() as trace:
            with Session(
                rules, options=EngineOptions(target="auto")
            ) as session:
                prepared = session.prepare(QUERY)
                first = prepared.target_selected
                second = prepared.target_selected
                renamed = session.prepare("q(Y) :- c2(Y), c1(Y)")
                third = renamed.target_selected
        assert renamed is prepared
        assert first == second == third
        selected = trace.counter(f"engine.target_selected.{first}")
        assert selected == 1  # memoized: counted once per handle
        assert trace.counter("engine.cache_hits") == 1  # the renamed prepare
        assert trace.counter("engine.cache_misses") == 0  # nothing compiled
