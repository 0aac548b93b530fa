"""Regression tests for the keying of the session's compile memo.

The handle table is keyed by the UCQ's canonical form, so any two
queries equal up to injective variable renaming and body-atom
reordering must share one handle, hence one compilation; the engine
itself memoizes nothing.  Hits and misses are observable both through
``Session.cache_stats()["memory"]`` and the ``engine.cache_hits`` /
``engine.cache_misses`` counters of :mod:`repro.obs`: a miss is one
compilation a handle ran, a hit a ``prepare()`` an existing handle
served or an artifact a sibling handle already held.
"""

from __future__ import annotations

from repro import obs
from repro.api import Session
from repro.lang.parser import parse_program, parse_query
from repro.lang.queries import UnionOfConjunctiveQueries

RULES = parse_program(
    """
    r1: professor(X) -> faculty(X).
    r2: faculty(X) -> teaches(X, Y).
    r3: dean(X) -> professor(X).
    """
)


def _memory(session: Session) -> tuple[int, int, int]:
    """(hits, misses, size) of the session's in-memory tier."""
    memory = session.cache_stats()["memory"]
    return memory["hits"], memory["misses"], memory["size"]


def test_identical_query_hits_cache():
    query = parse_query("q(X) :- faculty(X)")
    with obs.capture() as cap, Session(RULES) as session:
        session.prepare(query).result
        session.prepare(query).result
        assert _memory(session) == (1, 1, 1)
    assert cap.counter("engine.cache_hits") == 1
    assert cap.counter("engine.cache_misses") == 1


def test_alpha_renamed_query_hits_same_entry():
    with obs.capture() as cap, Session(RULES) as session:
        first = session.prepare(parse_query("q(X) :- teaches(X, Y)")).result
        second = session.prepare(parse_query("q(A) :- teaches(A, B)")).result
        assert _memory(session) == (1, 1, 1)
    assert cap.counter("engine.cache_hits") == 1
    assert first is second


def test_atom_reordered_query_hits_same_entry():
    with obs.capture() as cap, Session(RULES) as session:
        first = session.prepare(
            parse_query("q(X) :- faculty(X), teaches(X, Y)")
        ).result
        second = session.prepare(
            parse_query("q(X) :- teaches(X, Y), faculty(X)")
        ).result
        assert _memory(session) == (1, 1, 1)
    assert cap.counter("engine.cache_hits") == 1
    assert first is second


def test_renamed_and_reordered_query_hits_same_entry():
    with Session(RULES) as session:
        first = session.prepare(
            parse_query("q(X) :- faculty(X), teaches(X, Y), professor(Z)")
        ).result
        second = session.prepare(
            parse_query("q(U) :- teaches(U, W), professor(V), faculty(U)")
        ).result
        assert _memory(session) == (1, 1, 1)
    assert first is second


def test_ucq_disjunct_order_hits_same_entry():
    cq1 = parse_query("q(X) :- faculty(X)")
    cq2 = parse_query("q(X) :- dean(X)")
    with Session(RULES) as session:
        session.prepare(UnionOfConjunctiveQueries([cq1, cq2])).result
        session.prepare(UnionOfConjunctiveQueries([cq2, cq1])).result
        assert _memory(session) == (1, 1, 1)


def test_distinct_queries_miss():
    with obs.capture() as cap, Session(RULES) as session:
        session.prepare(parse_query("q(X) :- faculty(X)")).result
        session.prepare(parse_query("q(X) :- professor(X)")).result
        # Different answer tuple => different query, must not collide.
        session.prepare(parse_query("q(Y) :- teaches(X, Y)")).result
        session.prepare(parse_query("q(X) :- teaches(X, Y)")).result
        assert _memory(session) == (0, 4, 4)
    assert cap.counter("engine.cache_hits") == 0
    assert cap.counter("engine.cache_misses") == 4


def test_answer_paths_share_the_cached_rewriting(small_database):
    session = Session(RULES)
    query = parse_query("q(X) :- faculty(X)")
    with obs.capture() as cap:
        session.answer(query, small_database)
        # A second handle (the requested target differs, the resolved
        # one does not) answers from its sibling's compiled artifact.
        session.answer(
            parse_query("q(Z) :- faculty(Z)"), small_database, target="auto"
        )
    hits, misses, _ = _memory(session)
    assert misses == 1
    assert hits == 1
    assert cap.counter("engine.cache_misses") == 1
