"""Session-level integration tests for the hybrid answering regime.

Every mode of ``EngineOptions.hybrid`` must produce the same certain
answers on both evaluation backends, mutations must keep the
materialized state synchronized with the pure-rewriting reference, and
the persistent cache must round-trip core snapshots across sessions.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.api import EngineOptions, Session
from repro.hybrid.cost import HybridChoice
from repro.hybrid.maintain import MIN_DELTA_FLOOR
from repro.lang.parser import parse_database, parse_program
from repro.obs import InMemorySink

# Terminating (weakly acyclic) with an existential: every hybrid mode
# is feasible and must agree with plain rewriting.
TERMINATING = parse_program(
    """
    R1: professor(X) -> teaches(X, Y).
    R2: assoc_prof(X) -> professor(X).
    """
)
TERMINATING_DATA = "professor(ada). assoc_prof(bob)."
TERMINATING_QUERIES = (
    "q(X) :- professor(X)",
    "q(X) :- teaches(X, Y)",
    "q(X, Y) :- teaches(X, Y)",
)

# Non-terminating but separable: emp->person is the chase-safe core,
# the person/knows existential cycle stays residual, handled by
# rewriting.  The full chase never terminates, so SPLIT is the only
# way any materialization can happen here.
SEPARABLE = parse_program(
    """
    E: emp(X) -> person(X).
    K: person(X) -> knows(X, Y).
    B: knows(X, Y) -> person(Y).
    """
)
SEPARABLE_DATA = "emp(ada). emp(bob). person(carl)."
SEPARABLE_QUERIES = (
    "q(X) :- person(X)",
    "q(X) :- knows(X, Y)",
    "q(X) :- emp(X), knows(X, Y)",
)

MODES = ("off", "auto", "rewrite", "split", "materialize")


def database(text: str):
    from repro.data.database import Database

    return Database(parse_database(text))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "backend, target",
    [
        # The default ucq target keeps the bare backend id.
        pytest.param(
            backend,
            target,
            id=backend if target == "ucq" else f"{backend}-{target}",
        )
        for target in ("ucq", "datalog", "auto")
        for backend in ("memory", "sql")
    ],
)
def test_every_mode_agrees_on_terminating_ontologies(mode, backend, target):
    other_data = "assoc_prof(zed)."
    reference, other_reference = {}, {}
    with Session(TERMINATING, database(TERMINATING_DATA)) as session:
        for query in TERMINATING_QUERIES:
            reference[query] = session.answer(query)
            other_reference[query] = session.answer(
                query, database(other_data)
            )
    options = EngineOptions(hybrid=mode, target=target)
    with Session(
        TERMINATING, database(TERMINATING_DATA), options=options
    ) as session:
        for query in TERMINATING_QUERIES:
            assert (
                session.answer(query, backend=backend) == reference[query]
            ), f"mode={mode} backend={backend} target={target} query={query}"
            # A passed database bypasses the core: its answers come
            # from that database alone.
            assert (
                session.answer(query, database(other_data))
                == other_reference[query]
            ), f"mode={mode} target={target} query={query} (passed database)"


@pytest.mark.parametrize("backend", ["memory", "sql"])
def test_materialize_tracks_mutations_against_chase_oracle(backend):
    options = EngineOptions(hybrid="materialize")
    with Session(
        TERMINATING, database(TERMINATING_DATA), options=options
    ) as session:
        # The core is built lazily with the first answer; mutations
        # before that see no materialized state to maintain.
        assert session.insert("assoc_prof(zed).") is None
        session.answer(TERMINATING_QUERIES[0])
        maintained = session.insert("assoc_prof(carl). professor(dee).")
        assert maintained is not None
        assert not maintained.full_rechase
        maintained = session.delete("professor(ada).")
        assert maintained is not None
        for query in TERMINATING_QUERIES:
            assert session.answer(query, backend=backend) == (
                session.answer_chase(query)
            ), f"query={query} diverged from the chase oracle"


def test_split_matches_pure_rewriting_across_mutations():
    reference = Session(SEPARABLE, database(SEPARABLE_DATA))
    hybrid = Session(
        SEPARABLE,
        database(SEPARABLE_DATA),
        options=EngineOptions(hybrid="split"),
    )
    with reference, hybrid:
        decision = hybrid.hybrid_decision()
        assert decision is not None
        assert decision.choice is HybridChoice.SPLIT
        mutations = (
            ("insert", "emp(dana)."),
            ("insert", "person(eve). knows(eve, frank)."),
            ("delete", "emp(ada)."),
            ("delete", "person(carl)."),
        )
        for backend in ("memory", "sql"):
            for query in SEPARABLE_QUERIES:
                assert hybrid.answer(query, backend=backend) == (
                    reference.answer(query)
                ), f"pre-mutation query={query} backend={backend}"
        for op, text in mutations:
            maintained = getattr(hybrid, op)(text)
            getattr(reference, op)(text)
            assert maintained is not None
            assert not maintained.full_rechase
            for backend in ("memory", "sql"):
                for query in SEPARABLE_QUERIES:
                    assert hybrid.answer(query, backend=backend) == (
                        reference.answer(query)
                    ), f"after {op} {text!r}: query={query} backend={backend}"


def test_large_delta_falls_back_to_full_rechase():
    sink = InMemorySink()
    options = EngineOptions(hybrid="materialize", hybrid_threshold=0.5)
    with Session(
        TERMINATING, database("professor(seed)."), options=options
    ) as session:
        session.answer("q(X) :- professor(X)")  # build the core
        batch = ". ".join(
            f"professor(n{i})" for i in range(MIN_DELTA_FLOOR + 2)
        )
        with obs.use(sink, inherit=False):
            maintained = session.insert(batch + ".")
        assert maintained is not None
        assert maintained.full_rechase
        assert sink.counters().get("hybrid.full_rechase") == 1
        # The rebuilt closure still answers correctly on both backends.
        for backend in ("memory", "sql"):
            answers = session.answer(
                "q(X) :- teaches(X, Y)", backend=backend
            )
            assert len(answers) == MIN_DELTA_FLOOR + 3


def test_mutations_do_not_leak_into_the_caller_database():
    source = database(TERMINATING_DATA)
    before = set(source.facts())
    options = EngineOptions(hybrid="materialize")
    with Session(TERMINATING, source, options=options) as session:
        session.insert("professor(new).")
        session.delete("professor(ada).")
        assert set(source.facts()) == before


def test_hybrid_decision_exposure():
    with Session(TERMINATING, database(TERMINATING_DATA)) as session:
        assert session.hybrid_decision() is None  # hybrid="off" default
    with Session(
        TERMINATING,
        database(TERMINATING_DATA),
        options=EngineOptions(hybrid="materialize"),
    ) as session:
        decision = session.hybrid_decision()
        assert decision is not None
        assert decision.choice is HybridChoice.MATERIALIZE
        assert decision.forced
    with Session(
        TERMINATING,
        database(TERMINATING_DATA),
        options=EngineOptions(hybrid="auto"),
    ) as session:
        decision = session.hybrid_decision()
        assert decision is not None
        assert decision.choice.value in decision.feasible


def test_core_snapshot_round_trips_through_the_persistent_cache(tmp_path):
    options = EngineOptions(hybrid="materialize")
    query = "q(X) :- teaches(X, Y)"
    with Session(
        TERMINATING,
        database(TERMINATING_DATA),
        cache_dir=tmp_path,
        options=options,
    ) as session:
        first = session.answer(query)
        stats = session.cache_stats()
        assert stats["persistent"]["core_entries"] == 1
    sink = InMemorySink()
    with Session(
        TERMINATING,
        database(TERMINATING_DATA),
        cache_dir=tmp_path,
        options=options,
    ) as session:
        with obs.use(sink, inherit=False):
            second = session.answer(query)
    assert second == first
    counters = sink.counters()
    assert counters.get("hybrid.core_cache.hits") == 1
    assert "hybrid.core_cache.misses" not in counters


def test_corrupt_core_snapshot_is_an_error_and_a_miss(tmp_path):
    import sqlite3

    from repro.api.cache import DEFAULT_CACHE_FILENAME

    options = EngineOptions(hybrid="materialize")
    query = "q(X) :- teaches(X, Y)"
    with Session(
        TERMINATING,
        database(TERMINATING_DATA),
        cache_dir=tmp_path,
        options=options,
    ) as session:
        session.hybrid_decision()
    with sqlite3.connect(tmp_path / DEFAULT_CACHE_FILENAME) as connection:
        connection.execute(
            "UPDATE materialized_cores SET payload = ?",
            ('{"version": 1, "facts": "garbage"}',),
        )
    with Session(
        TERMINATING,
        database(TERMINATING_DATA),
        cache_dir=tmp_path,
        options=options,
    ) as session:
        session.hybrid_decision()
        stats = session.cache.stats()
        answers = session.answer(query)
    with Session(
        TERMINATING, database(TERMINATING_DATA), options=options
    ) as uncached:
        expected = uncached.answer(query)
    assert (stats.hits, stats.misses, stats.errors) == (0, 1, 1)
    assert stats.writes == 1  # the rebuilt core replaced the bad row
    assert answers == expected


def test_invalid_hybrid_options_are_rejected():
    with pytest.raises(ValueError):
        EngineOptions(hybrid="sometimes")
    with pytest.raises(ValueError):
        EngineOptions(hybrid_threshold=0.0)


def test_auto_splits_the_split_workload_before_any_prepare():
    # The decision is made before the first query: no workload, hence
    # no static disjunct bound for REWRITE, whose rewriting diverges
    # here.  SPLIT answers exactly.
    from repro.chase.certain import certain_answers_via_chase
    from repro.workloads.interaction import split_workload

    rules, query, data = split_workload()
    options = EngineOptions(hybrid="auto")
    with Session(rules, data, options=options) as session:
        decision = session.hybrid_decision()
        assert decision is not None
        assert decision.choice is HybridChoice.SPLIT
        answers = session.answer(query)
        assert session.prepare(query).plan().kind == "split"
    lower = certain_answers_via_chase(
        query, rules, data, max_steps=5_000, strict=False
    )
    assert answers == lower.answers
