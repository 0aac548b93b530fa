"""Session / PreparedQuery: compile-once serve-many semantics.

Covers the acceptance criterion of the API redesign: ``answer_many``
over >= 50 generated SWR queries returns answers identical to the
sequential path, and a second (warm-cache) session run skips every
rewrite -- verified through the obs cache counters.
"""

import random

import pytest

from repro import obs
from repro.api import EngineOptions, Session
from repro.data.database import Database
from repro.lang.parser import parse_database, parse_program, parse_query
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.rewriter import rewrite
from repro.workloads.generators import (
    concept_hierarchy,
    generate_database,
    swr_but_not_baselines,
)

PROGRAM = """
R1: s(Y1, Y2, Y3), t(Y4) -> r(Y1, Y3).
R2: v(Y1, Y2), q0(Y2) -> s(Y1, Y3, Y2).
R3: r(Y1, Y2) -> v(Y1, Y2).
"""

DATA = "v(a, b). q0(b). t(c)."


@pytest.fixture
def rules():
    return parse_program(PROGRAM)


@pytest.fixture
def data():
    return Database(parse_database(DATA))


def _workload():
    """>= 50 distinct atomic queries over a generated SWR ontology."""
    rules = concept_hierarchy(55) + swr_but_not_baselines(2)
    queries = [parse_query(f"q(X) :- c{i}(X)") for i in range(1, 56)]
    queries += [parse_query(f"q(X) :- u{c}(X)") for c in range(2)]
    assert len(queries) >= 50
    facts = generate_database(random.Random(7), rules, facts_per_relation=3)
    return rules, queries, Database(facts)


class TestPrepare:
    def test_prepare_accepts_text_and_objects(self, rules, data):
        with Session(rules, data) as session:
            from_text = session.prepare("q(X) :- r(X, Y)")
            from_object = session.prepare(parse_query("q(X) :- r(X, Y)"))
            assert from_text is from_object

    def test_prepare_shares_handles_up_to_renaming(self, rules):
        with Session(rules) as session:
            a = session.prepare("q(X) :- r(X, Y)")
            b = session.prepare("q(U) :- r(U, V)")
            assert a is b
            assert len(session.prepared_queries()) == 1

    def test_prepared_exposes_plan(self, rules):
        with Session(rules) as session:
            prepared = session.prepare("q(X) :- r(X, Y)")
            assert prepared.plan().exact
            assert len(prepared.ucq) == 3
            assert "SELECT DISTINCT" in prepared.sql
            explain = prepared.explain()
            assert explain["complete"] is True
            assert explain["disjuncts"] == 3

    def test_compilation_happens_once(self, rules, data):
        with Session(rules, data) as session:
            prepared = session.prepare("q(X) :- r(X, Y)")
            prepared.result  # first (and only) compilation
            with obs.capture() as trace:
                prepared.answer()
                prepared.answer(backend="sql")
                session.answer("q(Z) :- r(Z, W)")
            assert not trace.spans("engine.rewrite")

    def test_answers_match_direct_rewriting(self, rules, data):
        query = parse_query("q(X) :- r(X, Y)")
        direct = rewrite(query, rules, RewritingBudget.default())
        with Session(rules, data) as session:
            prepared = session.prepare(query)
            assert prepared.ucq == direct.ucq
            memory = prepared.answer()
            sql = prepared.answer(backend="sql")
            chase = session.answer_chase(query)
            assert memory == sql == chase

    def test_sql_backend_rejects_explicit_database(self, rules, data):
        from repro.lang.errors import ReproError

        with Session(rules, data) as session:
            with pytest.raises(ReproError):
                session.answer("q(X) :- r(X, Y)", data, backend="sql")

    def test_dataless_session_requires_explicit_database(self, rules, data):
        from repro.lang.errors import ReproError

        with Session(rules) as session:
            answers = session.answer("q(X) :- r(X, Y)", data)
            assert answers
            with pytest.raises(ReproError):
                session.answer("q(X) :- r(X, Y)")


class TestAnswerMany:
    def test_batch_matches_sequential(self, tmp_path):
        rules, queries, database = _workload()
        with Session(rules, database) as session:
            sequential = [session.answer(q) for q in queries]
        with Session(rules, database, cache_dir=tmp_path) as session:
            results = session.answer_all(queries, max_workers=4)
        assert len(results) == len(queries)
        for item, expected in zip(results, sequential):
            assert item.ok, item.error
            assert item.answers == expected

    def test_each_batch_item_plans_once(self, monkeypatch):
        # Each item's complete/disjuncts describe the plan whose answers
        # it carries: one plan per item, with data or compile-only.
        calls = []
        plan = Session._plan

        def spy(self, *args):
            calls.append(args)
            return plan(self, *args)

        monkeypatch.setattr(Session, "_plan", spy)
        rules, queries, database = _workload()
        with Session(rules, database) as session:
            results = session.answer_all(queries, max_workers=4)
        assert all(item.ok and item.answers is not None for item in results)
        assert len(calls) == len(queries)
        calls.clear()
        with Session(rules) as session:
            results = session.answer_all(queries, max_workers=4)
        assert all(item.ok and item.answers is None for item in results)
        assert len(calls) == len(queries)

    def test_warm_cache_run_skips_all_rewrites(self, tmp_path):
        rules, queries, database = _workload()
        with Session(rules, database, cache_dir=tmp_path) as session:
            baseline = [session.answer(q) for q in queries]
            cold_stats = session.cache_stats()
        assert cold_stats["persistent"]["writes"] == len(queries)

        with Session(rules, database, cache_dir=tmp_path) as session:
            with obs.capture() as trace:
                results = session.answer_all(queries, max_workers=4)
            warm_stats = session.cache_stats()

        assert [item.answers for item in results] == baseline
        # Every compilation was served from disk: no rewriting ran.
        assert trace.counter("engine.disk_hits") == len(queries)
        assert trace.counter("rewrite.cqs_generated") == 0
        assert not trace.spans("rewrite")
        assert warm_stats["persistent"]["hits"] == len(queries)
        assert warm_stats["persistent"]["misses"] == 0

    def test_unordered_streaming_covers_all_indices(self, rules, data):
        queries = ["q(X) :- r(X, Y)", "q(X, Y) :- v(X, Y)", "q() :- t(X)"]
        with Session(rules, data) as session:
            seen = {item.index for item in session.answer_many(queries)}
        assert seen == {0, 1, 2}

    def test_per_query_errors_do_not_kill_the_batch(self, rules, data):
        bad = "q(X) :- "  # parse error, caught per-item
        queries = ["q(X) :- r(X, Y)", bad, "q() :- t(X)"]
        with Session(rules, data) as session:
            results = session.answer_all(queries)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].error

    def test_incomplete_query_fails_alike_with_and_without_data(self):
        # Compile-only and answering batches refuse a budget-cut
        # rewriting through the same check, with the same message.
        rules = parse_program("a(X) -> b(X). b(X) -> c(X). c(X) -> d(X).")
        options = EngineOptions(budget=RewritingBudget(max_depth=1))
        query = "q(X) :- d(X)"
        with Session(rules, options=options) as compile_only:
            [without_data] = compile_only.answer_all([query])
        data = Database(parse_database("a(v). d(w)."))
        with Session(rules, data, options=options) as answering:
            [with_data] = answering.answer_all([query])
        assert without_data.error is not None
        assert "require_complete=False" in without_data.error
        assert with_data.error == without_data.error

    def test_process_pool_matches_thread_pool(self, tmp_path):
        rules, queries, database = _workload()
        queries = queries[:8]
        with Session(rules, database, cache_dir=tmp_path) as session:
            threaded = session.answer_all(queries, max_workers=2)
            forked = session.answer_all(
                queries, max_workers=2, mode="process"
            )
        assert [i.answers for i in threaded] == [i.answers for i in forked]
        assert all(item.ok for item in forked)

    def test_process_pool_applies_mappings(self, rules):
        from repro.lang.parser import parse_atom
        from repro.obda.mappings import MappingAssertion

        source = Database(parse_database("src_v(a, b). src_q(b). src_t(c)."))
        mappings = [
            MappingAssertion(
                (parse_atom("src_v(X, Y)"),), parse_atom("v(X, Y)")
            ),
            MappingAssertion((parse_atom("src_q(X)"),), parse_atom("q0(X)")),
            MappingAssertion((parse_atom("src_t(X)"),), parse_atom("t(X)")),
        ]
        with Session(rules, source, mappings=mappings) as session:
            expected = session.answer("q(X) :- r(X, Y)")
            results = session.answer_all(
                ["q(X) :- r(X, Y)"], max_workers=1, mode="process"
            )
        assert results[0].answers == expected
        assert expected


class TestLifecycle:
    def test_classification_is_cached(self, rules):
        with Session(rules) as session:
            assert session.classification() is session.classification()
            assert session.classification().swr.is_swr

    def test_close_is_idempotent(self, rules, data):
        session = Session(rules, data)
        session.answer("q(X) :- r(X, Y)", backend="sql")
        backend = session.sql_backend()
        session.close()
        session.close()
        assert backend.closed

    @pytest.mark.parametrize("hybrid", ["off", "materialize"])
    def test_sql_answer_after_close_raises(self, rules, data, hybrid):
        from repro.lang.errors import ReproError

        query = "q(X) :- r(X, Y)"
        session = Session(rules, data, options=EngineOptions(hybrid=hybrid))
        session.answer(query, backend="sql")  # opens the mirror close() releases
        session.close()
        with obs.capture() as cap:
            with pytest.raises(ReproError, match="session is closed"):
                session.answer(query, backend="sql")
        # No mirror was reopened, so none outlives the session.
        assert not cap.spans("obda.sql_backend_init")
        assert session._sql_backend is None
        if hybrid == "materialize":
            assert session._hybrid is not None
            assert session._hybrid.core is not None
            assert session._hybrid.mirror is None
        session.close()

    def test_cache_stats_without_cache_dir(self, rules):
        with Session(rules) as session:
            session.prepare("q(X) :- r(X, Y)").result
            stats = session.cache_stats()
        assert stats["persistent"] is None
        assert stats["memory"]["misses"] == 1


class TestAnalyze:
    def test_analyze_reports_lattice_and_partition(self):
        from repro.workloads.interaction import split_workload

        split_rules, _, _ = split_workload()
        with Session(split_rules) as session:
            report = session.analyze()
            assert not report.terminating
            assert report.separability.proper
            assert len(report.separability.core) == 3

    def test_analyze_is_memoized(self, rules):
        with Session(rules) as session:
            with obs.capture() as trace:
                first = session.analyze()
                second = session.analyze()
            assert first is second
            assert len(trace.spans("session.analyze")) == 1

    def test_analyze_terminating_ontology(self, rules):
        with Session(rules) as session:
            report = session.analyze()
            assert report.terminating
            assert report.level is not None
