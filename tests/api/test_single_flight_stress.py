"""The single-flight compilation contract, pinned under real races.

The serving layer relies on exactly this: N concurrent requests for
one cold (query, target) must collapse onto ONE compilation.  The
session's handle table is the one mechanism that guarantees it:
``prepare()`` serves every variant of a canonical query from one
handle per requested target, the handles of one query share one
artifact dict and one lock, and a handle compiles each artifact while
holding that lock, so concurrent first uses wait for the one
compilation.  The engine itself memoizes nothing.  These tests fire
real thread herds at the table and assert the counter arithmetic
exactly: a miss is one compilation, a hit a ``prepare()`` an existing
handle served or an artifact a sibling handle already held.
"""

import sys
import threading
import time

import pytest

import repro.rewriting.engine
from repro import obs
from repro.api import EngineOptions, Session
from repro.lang.errors import RewritingBudgetExceeded
from repro.lang.parser import parse_program, parse_ucq

PROGRAM = (
    "R1: professor(X) -> teaches(X, Y). "
    "R2: assoc_prof(X) -> professor(X). "
    "R3: dean(X) -> professor(X)."
)
QUERY = "q(X) :- teaches(X, Y)"
THREADS = 16


@pytest.fixture
def rules():
    return parse_program(PROGRAM)


@pytest.fixture(autouse=True)
def _frequent_switches():
    """Switch threads often, so a check-then-act race shows up."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _stampede(threads, action):
    """Run *action* on *threads* threads through a start barrier."""
    barrier = threading.Barrier(threads)
    errors = []

    def runner():
        barrier.wait()
        try:
            action()
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    pool = [threading.Thread(target=runner, daemon=True) for _ in range(threads)]
    for t in pool:
        t.start()
    deadline = time.monotonic() + 60
    for t in pool:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in pool)
    assert not errors, errors


class TestEngineSingleFlight:
    """Races through ``prepare()``: the handle table's exact arithmetic."""

    @pytest.mark.parametrize("target", ["ucq", "datalog"])
    def test_one_miss_rest_hits(self, rules, target):
        ucq = parse_ucq(QUERY)
        with obs.capture() as trace:
            with Session(rules) as session:
                _stampede(
                    THREADS,
                    lambda: session.prepare(ucq, target=target).rewriting,
                )
                memory = session.cache_stats()["memory"]
        # Exactly one miss (the one compilation); the other prepares
        # are served by the handle the first one built.
        assert trace.counter("engine.cache_misses") == 1
        assert trace.counter("engine.cache_hits") == THREADS - 1
        assert (memory["hits"], memory["misses"], memory["size"]) == (
            THREADS - 1, 1, 1,
        )

    def test_two_targets_compile_once_each(self, rules):
        ucq = parse_ucq(QUERY)
        with obs.capture() as trace:
            with Session(rules) as session:

                def mixed():
                    session.prepare(ucq, target="ucq").rewriting
                    session.prepare(ucq, target="datalog").rewriting

                _stampede(THREADS, mixed)
        # One compilation per (query, target): 2 misses total, every
        # other prepare across both targets a hit.
        assert trace.counter("engine.cache_misses") == 2
        assert trace.counter("engine.cache_hits") == 2 * THREADS - 2

    @pytest.mark.parametrize("target", ["ucq", "datalog"])
    def test_failed_compilation_never_strands_waiters(
        self, rules, target, monkeypatch
    ):
        # Every compilation raises.  The failure releases the handle's
        # lock; each waiter then finds no artifact, compiles itself and
        # raises too, so every thread misses once and none hangs.
        def failing(*args, **kwargs):
            raise RewritingBudgetExceeded("compilation failed")

        monkeypatch.setattr(repro.rewriting.engine, "rewrite", failing)
        monkeypatch.setattr(repro.rewriting.engine, "rewrite_datalog", failing)
        barrier = threading.Barrier(THREADS)
        raised = []
        with Session(rules) as session:
            prepared = session.prepare(QUERY, target=target)

            def runner():
                barrier.wait()
                with pytest.raises(RewritingBudgetExceeded):
                    prepared.rewriting  # noqa: B018 - forces compilation
                raised.append(True)

            pool = [
                threading.Thread(target=runner, daemon=True)
                for _ in range(THREADS)
            ]
            for t in pool:
                t.start()
            deadline = time.monotonic() + 60
            for t in pool:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(t.is_alive() for t in pool)
            assert len(raised) == THREADS
            memory = session.cache_stats()["memory"]
            assert (memory["hits"], memory["misses"], memory["size"]) == (
                0, THREADS, 0,
            )


class TestPreparedHandleSingleFlight:
    """Stampedes through handles: one compilation per artifact."""

    @pytest.mark.parametrize("target", ["ucq", "datalog"])
    def test_one_compilation_per_cold_query(self, rules, target):
        with obs.capture() as trace:
            with Session(
                rules, options=EngineOptions(target=target)
            ) as session:
                prepared = session.prepare(QUERY)
                if target == "datalog":
                    _stampede(THREADS, lambda: prepared.datalog)
                else:
                    _stampede(THREADS, lambda: prepared.result)
        # The handle's lock admits exactly one compilation; the threads
        # that waited read the handle's own artifact, which is no hit.
        assert trace.counter("engine.cache_misses") == 1
        assert trace.counter("engine.cache_hits") == 0
        assert len(trace.spans("engine.rewrite")) == 1

    def test_auto_handle_shares_its_explicit_siblings_compilation(
        self, rules
    ):
        # Half the herd asks for `auto`, half for `ucq`: two handles of
        # one query, one artifact dict, one compilation between them.
        with obs.capture() as trace:
            with Session(rules) as session:
                counter = iter(range(THREADS))
                lock = threading.Lock()

                def action():
                    with lock:
                        index = next(counter)
                    target = "auto" if index % 2 else "ucq"
                    session.prepare(QUERY, target=target).rewriting

                _stampede(THREADS, action)
                auto = session.prepare(QUERY, target="auto")
                explicit = session.prepare(QUERY, target="ucq")
        assert auto is not explicit
        assert auto.target_selected == "ucq"
        assert auto.rewriting is explicit.rewriting
        assert trace.counter("engine.cache_misses") == 1
        assert trace.counter("engine.target_selected.ucq") == 1
        # THREADS - 2 stampede prepares found a handle, the two closing
        # prepares did too, and the sibling that did not compile took
        # the other's artifact once.
        assert trace.counter("engine.cache_hits") == THREADS + 1

    def test_split_residual_compiles_once(self):
        from repro.chase.certain import certain_answers_via_chase
        from repro.workloads.interaction import split_workload

        rules, query, data = split_workload()
        results = []
        lock = threading.Lock()
        with obs.capture() as trace:
            with Session(
                rules, data, options=EngineOptions(hybrid="split")
            ) as session:
                prepared = session.prepare(query)

                def answer():
                    value = prepared.answer()
                    with lock:
                        results.append(value)

                _stampede(THREADS, answer)
                plan = prepared.plan()
                memory = session.cache_stats()["memory"]
        assert plan.kind == "split"
        # The residual rewriting is the one artifact: the full-ontology
        # rewriting, which diverges, is never compiled.
        assert trace.counter("engine.cache_misses") == 1
        assert trace.counter("engine.cache_hits") == 0
        assert len(trace.spans("engine.rewrite")) == 1
        assert (memory["misses"], memory["size"]) == (1, 1)
        assert len(results) == THREADS
        assert len(set(results)) == 1
        lower = certain_answers_via_chase(
            query, rules, data, max_steps=5_000, strict=False
        )
        assert results[0] == lower.answers

    def test_persistent_tier_writes_once(self, rules, tmp_path):
        with obs.capture() as trace:
            with Session(rules, cache_dir=tmp_path) as session:
                prepared = session.prepare(QUERY)
                _stampede(THREADS, lambda: prepared.result)
        assert trace.counter("api.cache.writes") == 1
        assert trace.counter("engine.disk_misses") == 1

    def test_stampede_answers_are_identical(self, rules):
        from repro.data.database import Database
        from repro.lang.parser import parse_database

        data = Database(parse_database("professor(ada). dean(eve)."))
        results = []
        lock = threading.Lock()
        with Session(rules, data) as session:
            prepared = session.prepare(QUERY)

            def answer():
                value = prepared.answer()
                with lock:
                    results.append(value)

            _stampede(THREADS, answer)
        assert len(set(results)) == 1
        assert len(results[0]) == 2
