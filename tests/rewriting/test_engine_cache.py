"""Regression tests for the engine's rewriting-cache keying.

The cache is keyed by the UCQ's canonical form, so any two queries
equal up to injective variable renaming and body-atom reordering must
share one entry.  Hits and misses are observable both through
``FORewritingEngine.cache_info()`` and the ``engine.cache_hits`` /
``engine.cache_misses`` counters of :mod:`repro.obs`.
"""

from __future__ import annotations

from repro import obs
from repro.api import Session
from repro.lang.parser import parse_program, parse_query
from repro.lang.queries import UnionOfConjunctiveQueries
from repro.rewriting.engine import FORewritingEngine

RULES = parse_program(
    """
    r1: professor(X) -> faculty(X).
    r2: faculty(X) -> teaches(X, Y).
    r3: dean(X) -> professor(X).
    """
)


def test_identical_query_hits_cache():
    engine = FORewritingEngine(RULES)
    query = parse_query("q(X) :- faculty(X)")
    with obs.capture() as cap:
        engine._rewrite(query)
        engine._rewrite(query)
    assert engine.cache_info().hits == 1
    assert engine.cache_info().misses == 1
    assert engine.cache_info().size == 1
    assert cap.counter("engine.cache_hits") == 1
    assert cap.counter("engine.cache_misses") == 1


def test_alpha_renamed_query_hits_same_entry():
    engine = FORewritingEngine(RULES)
    with obs.capture() as cap:
        first = engine._rewrite(parse_query("q(X) :- teaches(X, Y)"))
        second = engine._rewrite(parse_query("q(A) :- teaches(A, B)"))
    assert engine.cache_info() == (1, 1, 1)
    assert cap.counter("engine.cache_hits") == 1
    assert first is second


def test_atom_reordered_query_hits_same_entry():
    engine = FORewritingEngine(RULES)
    with obs.capture() as cap:
        first = engine._rewrite(
            parse_query("q(X) :- faculty(X), teaches(X, Y)")
        )
        second = engine._rewrite(
            parse_query("q(X) :- teaches(X, Y), faculty(X)")
        )
    assert engine.cache_info() == (1, 1, 1)
    assert cap.counter("engine.cache_hits") == 1
    assert first is second


def test_renamed_and_reordered_query_hits_same_entry():
    engine = FORewritingEngine(RULES)
    first = engine._rewrite(
        parse_query("q(X) :- faculty(X), teaches(X, Y), professor(Z)")
    )
    second = engine._rewrite(
        parse_query("q(U) :- teaches(U, W), professor(V), faculty(U)")
    )
    assert engine.cache_info() == (1, 1, 1)
    assert first is second


def test_ucq_disjunct_order_hits_same_entry():
    engine = FORewritingEngine(RULES)
    cq1 = parse_query("q(X) :- faculty(X)")
    cq2 = parse_query("q(X) :- dean(X)")
    engine._rewrite(UnionOfConjunctiveQueries([cq1, cq2]))
    engine._rewrite(UnionOfConjunctiveQueries([cq2, cq1]))
    assert engine.cache_info() == (1, 1, 1)


def test_distinct_queries_miss():
    engine = FORewritingEngine(RULES)
    with obs.capture() as cap:
        engine._rewrite(parse_query("q(X) :- faculty(X)"))
        engine._rewrite(parse_query("q(X) :- professor(X)"))
        # Different answer tuple => different query, must not collide.
        engine._rewrite(parse_query("q(Y) :- teaches(X, Y)"))
        engine._rewrite(parse_query("q(X) :- teaches(X, Y)"))
    assert engine.cache_info() == (0, 4, 4)
    assert cap.counter("engine.cache_hits") == 0
    assert cap.counter("engine.cache_misses") == 4


def test_answer_paths_share_the_cached_rewriting(small_database):
    session = Session(RULES)
    engine = session.engine
    query = parse_query("q(X) :- faculty(X)")
    with obs.capture() as cap:
        session.answer(query, small_database)
        # A second handle (the requested target differs, the resolved
        # one does not) answers from the engine's cached entry.
        session.answer(
            parse_query("q(Z) :- faculty(Z)"), small_database, target="auto"
        )
    assert engine.cache_info().misses == 1
    assert engine.cache_info().hits == 1
    assert cap.counter("engine.cache_misses") == 1
