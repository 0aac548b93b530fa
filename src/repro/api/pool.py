"""Parallel batch answering over ``concurrent.futures`` worker pools.

Two execution modes, one result shape:

* **thread** (default) -- workers share the calling session's handle
  table, caches and SQLite backend.  Compilations of the same canonical
  query are single-flighted by its prepared handle's lock, the
  persistent cache is consulted under its own lock, and SQLite
  evaluation releases the GIL, so warm workloads stream at cache speed.
* **process** -- each worker process builds its own session from the
  pickled ontology/data (spawn start method: nothing is inherited
  across ``fork``, which keeps SQLite handles safe).  Cold compilations
  then really run on multiple cores, and every worker shares the same
  persistent cache *file*, so work done by one process warms all later
  ones.

Results stream back as :class:`BatchResult` items as they complete
(or in input order with ``ordered=True``).  A failing query never takes
the batch down: its item carries the error text instead of answers.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro import obs
from repro.data.database import Database
from repro.lang.errors import ReproError
from repro.lang.terms import Term

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.session import Session

_MODES = ("thread", "process")


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one query of a batch.

    ``answers`` is None in two cases: the query failed (``error`` holds
    the message) or the batch ran compile-only (no database).
    ``complete``/``disjuncts`` are the exactness and size of the plan
    that answered (or, compile-only, would answer) the query: see
    :class:`~repro.api.prepared.AnswerPlan`.  Under the Datalog target
    ``disjuncts`` counts the program's rules instead of UCQ disjuncts.
    """

    index: int
    query: str
    answers: frozenset[tuple[Term, ...]] | None
    complete: bool
    disjuncts: int
    seconds: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True iff this query compiled (and, if asked, answered)."""
        return self.error is None


def run_batch(
    session: "Session",
    queries: Sequence,
    *,
    database: Database | None = None,
    max_workers: int | None = None,
    mode: str = "thread",
    backend: str = "memory",
    require_complete: bool = True,
    ordered: bool = False,
    target: str | None = None,
) -> Iterator[BatchResult]:
    """Fan the batch out on a worker pool; yield results as they finish.

    *database* overrides the session's own data for evaluation; when
    the session has no data and none is passed, the batch is
    compile-only (rewritings are still computed and cached, answers
    are None).  *target* overrides the session's rewriting target for
    every query of the batch (None keeps the session default).
    """
    if mode not in _MODES:
        raise ReproError(f"unknown batch mode {mode!r}; expected one of {_MODES}")
    if target is None:
        # Worker processes rebuild their sessions from scratch, so the
        # calling session's target must travel explicitly.
        target = session.engine.target
    queries = list(queries)
    obs.event(
        "api.batch.start",
        queries=len(queries),
        mode=mode,
        backend=backend,
        workers=max_workers or 0,
    )
    if mode == "process":
        yield from _run_process_batch(
            session,
            queries,
            database=database,
            max_workers=max_workers,
            backend=backend,
            require_complete=require_complete,
            ordered=ordered,
            target=target,
        )
        return
    executor = ThreadPoolExecutor(
        max_workers=max_workers, thread_name_prefix="repro-batch"
    )
    try:
        futures = {
            executor.submit(
                _thread_task,
                session,
                index,
                query,
                database,
                backend,
                require_complete,
                target,
            ): index
            for index, query in enumerate(queries)
        }
        yield from _stream(futures, ordered)
    finally:
        executor.shutdown(wait=True)


def _thread_task(
    session: "Session",
    index: int,
    query: Any,
    database: Database | None,
    backend: str,
    require_complete: bool,
    target: str | None = None,
) -> BatchResult:
    started = time.perf_counter()
    text = query if isinstance(query, str) else str(query)
    try:
        prepared = session.prepare(query, target=target)
        plan = prepared.plan(database, backend=backend)
        answers = None
        if database is not None or session.data is not None:
            answers = prepared.execute(plan, require_complete=require_complete)
        elif require_complete:
            # Compile-only batches still honour require_complete so
            # truncated rewritings surface as per-item errors.
            plan.require_exact()
        return BatchResult(
            index=index,
            query=text,
            answers=answers,
            complete=plan.exact,
            disjuncts=plan.size,
            seconds=time.perf_counter() - started,
        )
    except Exception as error:  # noqa: BLE001 - one bad query != dead batch
        return BatchResult(
            index=index,
            query=text,
            answers=None,
            complete=False,
            disjuncts=0,
            seconds=time.perf_counter() - started,
            error=str(error) or error.__class__.__name__,
        )


def _stream(futures: dict, ordered: bool) -> Iterator[BatchResult]:
    if not ordered:
        for future in as_completed(futures):
            # audit: ok[RL312] as_completed only yields finished futures
            yield future.result()
        return
    pending: dict[int, BatchResult] = {}
    next_index = 0
    for future in as_completed(futures):
        # audit: ok[RL312] as_completed only yields finished futures
        result = future.result()
        pending[result.index] = result
        while next_index in pending:
            yield pending.pop(next_index)
            next_index += 1


# --------------------------------------------------------------------- #
# Process mode                                                            #
# --------------------------------------------------------------------- #
#
# Worker processes rebuild a session once (pool initializer) and then
# answer queries from their input pickled as plain text.  The spawn
# start method is used deliberately: forked children would inherit the
# parent's open SQLite handles, which SQLite documents as unsafe.

_WORKER_SESSION: "Session | None" = None
_WORKER_CONFIG: dict | None = None


def _init_worker(
    rules: Any,
    database: Database | None,
    options: Any,
    cache_dir: str | None,
    backend: str,
    require_complete: bool,
    target: str | None = None,
) -> None:
    # One picklable EngineOptions rebuilds an identical engine in every
    # spawned worker -- no per-knob plumbing through initargs.
    global _WORKER_SESSION, _WORKER_CONFIG
    from repro.api.session import Session

    _WORKER_SESSION = Session(
        rules,
        database,
        cache_dir=cache_dir,
        options=options,
    )
    _WORKER_CONFIG = {
        "backend": backend,
        "require_complete": require_complete,
        "target": target,
    }


def _process_task(item: tuple[int, object]) -> BatchResult:
    index, query = item
    assert _WORKER_SESSION is not None and _WORKER_CONFIG is not None
    return _thread_task(
        _WORKER_SESSION,
        index,
        query,
        None,
        _WORKER_CONFIG["backend"],
        _WORKER_CONFIG["require_complete"],
        _WORKER_CONFIG.get("target"),
    )


def _run_process_batch(
    session: "Session",
    queries: Sequence,
    *,
    database: Database | None,
    max_workers: int | None,
    backend: str,
    require_complete: bool,
    ordered: bool,
    target: str | None = None,
) -> Iterator[BatchResult]:
    # Ship the *virtual ABox* (mappings already applied), so worker
    # sessions need no mapping layer of their own.  With backend="sql"
    # each worker loads its own SQLite copy of it.
    if database is not None:
        data = database
    else:
        data = session.abox() if session.data is not None else None
    cache_dir = str(session.cache_dir) if session.cache_dir is not None else None
    context = multiprocessing.get_context("spawn")
    executor: Executor = ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=context,
        initializer=_init_worker,
        initargs=(
            session.ontology,
            data,
            session.options,
            cache_dir,
            backend,
            require_complete,
            target,
        ),
    )
    try:
        futures = {
            executor.submit(_process_task, (index, query)): index
            for index, query in enumerate(queries)
        }
        yield from _stream(futures, ordered)
    finally:
        executor.shutdown(wait=True)


def resolve_workers(requested: int | None, batch_size: int) -> int:
    """The worker count a batch will actually use (for logs/benches)."""
    import os

    if requested is not None:
        return max(1, requested)
    return max(1, min(batch_size, os.cpu_count() or 1))
