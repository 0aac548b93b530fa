"""The single-flight compilation contract, pinned under real races.

The serving layer relies on exactly this: N concurrent requests for
one cold (query, target) must collapse onto ONE compilation.  Two
mechanisms stack to guarantee it -- the engine's inflight locking
(losers wait for the winner's entry, then count as cache hits) and the
:class:`PreparedQuery` handle's own memoization (once any thread has
compiled through a handle, later accesses never reach the engine at
all).  These tests fire real thread herds at both layers and assert
the counter arithmetic exactly.
"""

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

    pool = [threading.Thread(target=runner) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert not errors, errors


class TestEngineSingleFlight:
    """Raw engine races: the inflight-event locking's exact arithmetic."""

    @pytest.mark.parametrize("target", ["ucq", "datalog"])
    def test_one_miss_rest_hits(self, rules, target):
        ucq = parse_ucq(QUERY)
        with obs.capture() as trace:
            with Session(rules) as session:
                engine = session.engine
                if target == "datalog":
                    _stampede(THREADS, lambda: engine._rewrite(ucq, "datalog"))
                else:
                    _stampede(THREADS, lambda: engine._rewrite(ucq))
        # Exactly one miss (the winner compiles); the losers wait on
        # the inflight event, retry the lookup, and count as hits.
        assert trace.counter("engine.cache_misses") == 1
        assert trace.counter("engine.cache_hits") == THREADS - 1

    def test_two_targets_compile_once_each(self, rules):
        ucq = parse_ucq(QUERY)
        with obs.capture() as trace:
            with Session(rules) as session:
                engine = session.engine

                def mixed():
                    engine._rewrite(ucq)
                    engine._rewrite(ucq, "datalog")

                _stampede(THREADS, mixed)
        # One compilation per (query, target): 2 misses total, every
        # other lookup across both targets a hit.
        assert trace.counter("engine.cache_misses") == 2
        assert trace.counter("engine.cache_hits") == 2 * THREADS - 2

    @pytest.mark.parametrize("target", ["ucq", "datalog"])
    def test_failed_compilation_never_strands_waiters(
        self, rules, target, monkeypatch
    ):
        # Every compilation raises.  The failure wakes the waiters;
        # each then finds no entry, compiles itself and raises too, so
        # every thread misses once and none hangs.
        def failing(*args, **kwargs):
            raise RewritingBudgetExceeded("compilation failed")

        monkeypatch.setattr(repro.rewriting.engine, "rewrite", failing)
        monkeypatch.setattr(repro.rewriting.engine, "rewrite_datalog", failing)
        ucq = parse_ucq(QUERY)
        barrier = threading.Barrier(THREADS)
        raised = []
        with Session(rules) as session:
            engine = session.engine

            def runner():
                barrier.wait()
                with pytest.raises(RewritingBudgetExceeded):
                    engine._rewrite(ucq, target)
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
            assert engine.cache_info() == (0, THREADS, 0)


class TestPreparedHandleSingleFlight:
    """Stampedes through one handle: at most ONE engine lookup total."""

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
        # However many threads slip past the handle's memoization
        # check, the engine's inflight locking admits exactly one
        # compilation; the rest (0..N-1, schedule-dependent) are hits.
        assert trace.counter("engine.cache_misses") == 1
        assert trace.counter("engine.cache_hits") <= THREADS - 1

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
