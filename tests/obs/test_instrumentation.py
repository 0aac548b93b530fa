"""The pipeline emits the counters and spans the ISSUE promises.

These tests pin the *names* and basic semantics of the instrumentation
wired through rewriting, chase, SQL and OBDA layers -- renaming a
counter is a breaking change for dashboards and the BENCH artifacts.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.api import EngineOptions, Session
from repro.chase import oblivious_chase, restricted_chase, skolem_chase
from repro.data.database import Database
from repro.lang.parser import parse_database, parse_program, parse_query

RULES = parse_program(
    """
    r1: person(X) -> worksAt(X, Y).
    r2: worksAt(X, Y) -> org(Y).
    r3: professor(X) -> person(X).
    """
)
DATABASE = Database(
    parse_database("person(ada). professor(alan). worksAt(ada, lab).")
)


def test_rewriting_counters():
    query = parse_query("q(X) :- org(X)")
    with obs.capture() as cap:
        Session(RULES).prepare(query).result  # noqa: B018 - compiles
    counters = cap.counters()
    assert counters["rewrite.cqs_generated"] >= 1
    assert counters["rewrite.cqs_explored"] >= 1
    assert counters["rewrite.candidates"] >= 1
    assert "minimize.subsumption_checks" in counters
    assert cap.span("rewrite")["attrs"]["complete"] is True
    assert cap.spans("rewrite.round")


CHASES = {
    "restricted": restricted_chase,
    "oblivious": oblivious_chase,
    "skolem": skolem_chase,
}


@pytest.mark.parametrize("mode", sorted(CHASES))
def test_chase_counters_match_result(mode):
    with obs.capture() as cap:
        result = CHASES[mode](RULES, DATABASE)
    counters = cap.counters()
    assert counters["chase.firings"] == result.steps
    assert counters["chase.nulls_created"] == result.nulls_created >= 1
    assert counters["chase.triggers_checked"] >= result.steps
    assert (
        counters["chase.triggers_checked"]
        == result.steps + counters["chase.triggers_suppressed"]
    )
    span = cap.span("chase")
    assert span["attrs"]["mode"] == mode
    assert span["attrs"]["fixpoint"] is True
    assert span["attrs"]["rounds"] == counters["chase.rounds"] >= 1
    assert span["attrs"]["nulls"] == counters["chase.nulls_created"]


def test_sql_counters(tmp_path):
    query = parse_query("q(X) :- person(X)")
    with obs.capture() as cap:
        with Session(RULES, DATABASE) as session:
            session.answer(query, backend="sql")
    counters = cap.counters()
    assert counters["sql.rows_loaded"] == len(DATABASE)
    assert counters["sql.statements"] >= 1
    assert counters["sql.rows_fetched"] >= 2  # ada and alan
    assert cap.span("sql.execute")["attrs"]["kind"] in ("cq", "ucq")
    assert cap.spans("sql.compile")


def test_store_hit_and_miss_counters(tmp_path):
    query = parse_query("q(X) :- org(X)")
    with obs.capture() as cap:
        with Session(RULES, cache_dir=tmp_path) as build:
            build.prepare(query).result  # noqa: B018 - compiles, stores
        with Session(RULES, cache_dir=tmp_path) as deployed:
            deployed.prepare(query).result  # noqa: B018 - hit
    counters = cap.counters()
    assert counters["api.cache.writes"] == 1
    assert counters["api.cache.hits"] == 1
    assert counters["api.cache.misses"] == 1


def _answer_span(session, query, **kwargs):
    """Answer once; return the answers, the attributes of the one
    ``obda.answer`` span, and the capture."""
    with obs.capture() as cap:
        answers = session.answer(query, **kwargs)
    (span,) = cap.spans("obda.answer")
    assert span["attrs"]["answers"] == len(answers)
    return answers, span["attrs"], cap


def test_obda_spans_cover_both_backends():
    query = parse_query("q(X) :- person(X)")
    with obs.capture() as cap, Session(RULES, DATABASE) as session:
        memory = session.answer(query)
        sql = session.answer(query, backend="sql")
        chase = session.answer_chase(query)
    assert memory == sql == chase
    backends = [
        span["attrs"]["backend"] for span in cap.spans("obda.answer")
    ]
    assert backends == ["memory", "sqlite"]
    assert cap.span("obda.sql_backend_init")["attrs"]["facts"] == len(
        DATABASE
    )
    oracle_span = cap.span("obda.chase_oracle")
    assert oracle_span["attrs"]["answers"] == len(chase)
    assert oracle_span["attrs"]["chase_steps"] >= 1
    # Every evaluation path -- plain memory and SQL, Datalog, and
    # answers served from a hybrid core -- emits exactly one span.
    query = parse_query("q(X, Y) :- worksAt(X, Y)")
    with Session(RULES, DATABASE) as session:
        memory, attrs, _ = _answer_span(session, query)
        assert attrs == {"backend": "memory", "complete": True, "answers": 1}
        sql, attrs, _ = _answer_span(session, query, backend="sql")
        assert attrs == {"backend": "sqlite", "complete": True, "answers": 1}
        for backend, name in (("memory", "memory"), ("sql", "sqlite")):
            datalog, attrs, _ = _answer_span(
                session, query, backend=backend, target="datalog"
            )
            assert datalog == memory
            assert attrs == {
                "backend": name,
                "target": "datalog",
                "complete": True,
                "answers": 1,
            }
    assert memory == sql
    options = EngineOptions(hybrid="materialize")
    with Session(RULES, DATABASE, options=options) as session:
        session.hybrid_decision()  # builds the core
        # The core holds worksAt(alan, _null); certain answers drop it.
        core_memory, attrs, _ = _answer_span(session, query)
        assert attrs == {
            "backend": "memory",
            "hybrid": "materialize",
            "complete": True,
            "answers": 1,
        }
        core_sql, attrs, cap = _answer_span(session, query, backend="sql")
        assert attrs == {
            "backend": "sqlite",
            "hybrid": "materialize",
            "complete": True,
            "answers": 1,
        }
        # The first SQL answer loads the core's mirror, once.
        (init,) = cap.spans("obda.sql_backend_init")
        assert init["attrs"]["facts"] > len(DATABASE)
        _, _, cap = _answer_span(session, query, backend="sql")
        assert not cap.spans("obda.sql_backend_init")
    assert core_memory == core_sql == memory


def test_evaluation_and_materialization_spans():
    """In-memory UCQ evaluation and a Datalog answer each open one
    span per call -- none per CQ, per rule or per trigger."""
    query = parse_query("q(X) :- person(X)")
    with Session(RULES, DATABASE) as session:
        answers, _, cap = _answer_span(session, query)
        (span,) = cap.spans("data.evaluate")
        assert span["parent"] == cap.span("obda.answer")["id"]
        assert span["attrs"] == {
            "disjuncts": len(session.prepare(query).ucq),
            "answers": len(answers),
        }
        assert span["attrs"]["disjuncts"] > 1
        assert not cap.spans("datalog.materialize")
        answers, _, cap = _answer_span(session, query, target="datalog")
        (span,) = cap.spans("datalog_target.answer")
        assert span["parent"] == cap.span("obda.answer")["id"]
        program = session.prepare(query, target="datalog").datalog
        assert span["attrs"] == {
            "rules": program.size,
            "goal": program.goal,
            "answers": len(answers),
        }
        assert program.size > 1
        # The rules run through the join kernel, not the fixpoint, and
        # open no span of their own.
        assert not cap.spans("datalog.materialize")
        assert not cap.spans("data.evaluate")
    with obs.capture() as cap:
        restricted_chase(RULES, DATABASE)
    assert not cap.spans("data.evaluate")
    assert not cap.spans("datalog.materialize")


def test_disabled_instrumentation_leaves_results_unchanged():
    """With the default null tracer the pipeline behaves identically."""
    query = parse_query("q(X) :- org(X)")
    baseline = Session(RULES).answer(query, DATABASE)
    with obs.capture() as cap:
        traced = Session(RULES).answer(query, DATABASE)
    assert traced == baseline
    assert cap.spans("rewrite")
