"""Differential property suite for the nonrecursive-Datalog target.

Reuses the stratified-workload strategies of
:mod:`tests.property.test_differential_answers` (the PR-2 harness) and
checks that the second rewriting target agrees with every established
answering path:

* ``rewrite_datalog(...).answer``  -- Datalog program, in-memory eval;
* SQL ``WITH``-CTE compilation     -- the same program on SQLite;
* ``Session.answer``               -- exploded-UCQ target;
* chase certain answers            -- the semantics oracle.

The generated programs are stratified, hence SWR and weakly acyclic:
every path is exact and total, so any disagreement is a real bug.
Budget-truncated programs are additionally checked to stay *sound*
(a subset of the oracle) on both evaluation backends.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.api import Session
from repro.chase.certain import certain_answers
from repro.data.sql import datalog_to_sql
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.datalog_target import rewrite_datalog
from repro.rewriting.engine import FORewritingEngine

from tests.property.test_differential_answers import (
    databases,
    programs,
    queries,
    sqlite_backend,
    ucq_queries,
)


def _sql_answers(datalog, rules, database, query):
    """Evaluate the program's WITH-CTE compilation on SQLite."""
    with sqlite_backend(rules, database, query) as backend:
        backend.ensure_atoms(datalog.base_atoms())
        return backend.execute_sql(datalog_to_sql(datalog))


@settings(max_examples=100, deadline=None)
@given(programs(), databases(), queries())
def test_datalog_target_agrees_with_all_paths(rules, database, query):
    """Datalog == UCQ == chase == SQL-CTE on stratified inputs."""
    datalog = rewrite_datalog(query, rules)
    assert datalog.complete
    oracle = certain_answers(query, rules, database, max_steps=20_000)
    via_memory = datalog.answer(database)
    via_sql = _sql_answers(datalog, rules, database, query)
    via_ucq = Session(rules).answer(query, database)
    assert via_memory == oracle
    assert via_sql == oracle
    assert via_ucq == oracle


@settings(max_examples=50, deadline=None)
@given(programs(), databases(), ucq_queries())
def test_datalog_target_ucq_inputs(rules, database, ucq):
    """UCQ inputs: shared aux predicates don't leak across disjuncts."""
    datalog = rewrite_datalog(ucq, rules)
    oracle = certain_answers(ucq, rules, database, max_steps=20_000)
    assert datalog.answer(database) == oracle
    assert _sql_answers(datalog, rules, database, ucq) == oracle


@settings(max_examples=40, deadline=None)
@given(programs(), databases(), queries())
def test_budgeted_datalog_is_sound_subset(rules, database, query):
    """Budget-truncated Datalog programs only ever lose answers."""
    tight = RewritingBudget(max_depth=1, max_cqs=100_000)
    datalog = rewrite_datalog(query, rules, tight)
    oracle = certain_answers(query, rules, database, max_steps=20_000)
    via_memory = datalog.answer(database)
    via_sql = _sql_answers(datalog, rules, database, query)
    assert via_memory <= oracle
    # Both evaluation backends degrade identically.
    assert via_sql == via_memory
    if datalog.complete:
        assert via_memory == oracle


@settings(max_examples=40, deadline=None)
@given(programs(), databases(), queries())
def test_auto_target_never_diverges(rules, database, query):
    """Whatever ``auto`` picks, the session-level answers match."""
    engine = FORewritingEngine(rules, target="auto")
    selected = engine.resolve_target(query)
    assert selected in ("ucq", "datalog")
    oracle = certain_answers(query, rules, database, max_steps=20_000)
    if selected == "datalog":
        assert rewrite_datalog(query, rules).answer(database) == oracle
    assert Session(rules).answer(query, database) == oracle
