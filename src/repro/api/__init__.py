"""Public session API: compile-once / serve-many OBDA query answering.

This package is the stable programmatic surface of the library:

* :class:`Session` -- an ontology (plus optional mappings and data)
  with its classification, rewriting engine, persistent compilation
  cache and evaluation backends, all computed once and shared;
* :class:`PreparedQuery` -- a canonicalized conjunctive query bound to
  a session, compiled (rewritten) at most once, reusable for in-memory
  and SQL evaluation; its :class:`AnswerPlan` says what an answer
  evaluates, where, and whether it is exact;
* :class:`RewritingCache` -- the on-disk (SQLite) rewriting cache
  behind ``Session(cache_dir=...)``, shared safely across sessions,
  threads and processes;
* :func:`answer_many` plumbing (:class:`BatchResult`) -- parallel batch
  answering that streams results as they complete.

:class:`Session` is the library's one answering surface; the older
facade, engine answering shims and per-keyword ``Session`` options are
gone, and ``docs/api.md`` maps each onto its replacement.
``repro.api.__all__`` is a snapshot-tested contract: names listed here
do not change meaning or disappear without a major version bump.
"""

from __future__ import annotations

from repro.api.cache import (
    CACHE_SCHEMA_VERSION,
    CacheKey,
    CacheStats,
    RewritingCache,
)
from repro.api.options import EngineOptions
from repro.api.pool import BatchResult, resolve_workers
from repro.api.prepared import AnswerPlan, PreparedQuery
from repro.api.session import Session

__all__ = [
    "AnswerPlan",
    "BatchResult",
    "CACHE_SCHEMA_VERSION",
    "CacheKey",
    "CacheStats",
    "EngineOptions",
    "PreparedQuery",
    "RewritingCache",
    "Session",
    "resolve_workers",
]
