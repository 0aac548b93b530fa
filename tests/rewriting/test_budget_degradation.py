"""Budget trips degrade soundly, and the degradation is observable.

When a :class:`RewritingBudget` (depth, CQ count or wall-clock) trips,
``require_complete=False`` must return a *sound subset* of the
unbudgeted answers -- on both the in-memory and the SQL path -- and the
partial/complete status must be visible in the trace spans.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.api import EngineOptions, Session
from repro.data.database import Database
from repro.lang.errors import RewritingBudgetExceeded
from repro.lang.parser import parse_database, parse_program, parse_query
from repro.rewriting.budget import RewritingBudget

RULES = parse_program(
    """
    r1: a(X) -> b(X).
    r2: b(X) -> c(X).
    r3: c(X) -> d(X).
    r4: d(X) -> e(X).
    """
)
QUERY = parse_query("q(X) :- e(X)")
DATABASE = Database(
    parse_database("a(one). b(two). c(three). d(four). e(five).")
)


def _session(budget: RewritingBudget | None = None) -> Session:
    options = EngineOptions() if budget is None else EngineOptions(budget=budget)
    return Session(RULES, DATABASE, options=options)


def _full_answers():
    with _session() as session:
        return session.answer(QUERY)


@pytest.mark.parametrize(
    "budget",
    [
        RewritingBudget(max_depth=1),
        RewritingBudget(max_depth=2),
        RewritingBudget(max_depth=None, max_cqs=2),
        RewritingBudget(max_seconds=1e-9),
    ],
    ids=["depth-1", "depth-2", "cq-count", "wall-clock"],
)
def test_budget_trip_yields_sound_subset_on_both_paths(budget):
    full = _full_answers()
    with _session(budget) as session:
        result = session.prepare(QUERY).result
        assert not result.complete

        partial = session.answer(QUERY, require_complete=False)
        assert partial < full  # strict: the truncation really lost answers

        partial_sql = session.answer(
            QUERY, backend="sql", require_complete=False
        )
    assert partial_sql < full
    assert partial_sql == partial


def test_unbudgeted_run_is_complete_baseline():
    # Every element reaches e via the r1..r4 chain.
    assert len(_full_answers()) == 5


def test_require_complete_raises_on_partial_rewriting():
    with _session(RewritingBudget(max_depth=1)) as session:
        with pytest.raises(RewritingBudgetExceeded):
            session.answer(QUERY)
        with pytest.raises(RewritingBudgetExceeded):
            session.answer(QUERY, backend="sql")


def test_partial_status_is_visible_in_trace():
    with _session(RewritingBudget(max_depth=1)) as session:
        with obs.capture() as cap:
            session.answer(QUERY, require_complete=False)
    assert cap.span("rewrite")["attrs"]["complete"] is False
    assert cap.span("engine.rewrite")["attrs"]["complete"] is False
    answer_span = cap.span("obda.answer")
    assert answer_span["attrs"]["complete"] is False
    assert answer_span["attrs"]["backend"] == "memory"


def test_complete_status_is_visible_in_trace():
    with _session() as session, obs.capture() as cap:
        session.answer(QUERY)
    assert cap.span("rewrite")["attrs"]["complete"] is True
    assert cap.span("obda.answer")["attrs"]["complete"] is True


def test_deeper_budgets_converge_monotonically():
    """Increasing depth budgets only ever add answers, up to the fixpoint."""
    full = _full_answers()
    previous = frozenset()
    for depth in range(0, 6):
        with _session(RewritingBudget(max_depth=depth)) as session:
            answers = session.answer(QUERY, require_complete=False)
        assert previous <= answers <= full
        previous = answers
    assert previous == full
