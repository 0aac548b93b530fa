"""Persistent on-disk cache of compiled artifacts.

OBDA deployments compile a query once and serve it for the lifetime of
the ontology; the compilation (the rewriting) is the expensive step and
depends only on the (ontology, query, budget, rewriter-version)
quadruple -- never on the data.  :class:`RewritingCache` persists that
mapping in a single SQLite file so every later process (another CLI
invocation, a pool worker, tomorrow's server restart) skips the
rewriting entirely.  The same file holds the hybrid layer's
materialized-core snapshots (:mod:`repro.hybrid.store`).

Keying and invalidation
-----------------------

Every entry is addressed by a :class:`CacheKey` combining four content
digests (see :mod:`repro.rewriting.store`):

* ``ontology_digest`` -- SHA-256 over the sorted rule texts.  Editing,
  adding or removing any rule changes the digest, so a changed ontology
  can never serve stale rewritings; old entries are simply unreachable
  (and can be vacuumed with :meth:`RewritingCache.evict_ontologies`).
* ``query_digest``    -- SHA-256 over the sorted canonical forms of the
  UCQ's disjuncts; alpha-renamed / atom-reordered / disjunct-permuted
  variants of a query share one entry.
* ``budget_digest``   -- the budget's limit fields (``strict`` excluded:
  it affects error reporting, not the computed UCQ).
* ``engine_version``  -- :data:`repro.rewriting.engine.ENGINE_VERSION`;
  bumping it invalidates every previously compiled rewriting at once.

plus the artifact kind, ``target``: ``"ucq"`` (an exploded UCQ),
``"datalog"`` (a stratified rule program) or ``"core"`` (a chased-core
snapshot).  All kinds live in one ``artifacts`` table, whose ``kind``
column is the key's target, so keys of different kinds never collide.
A session opened with ``target="auto"`` stores entries under the
*resolved* target, so the estimator-driven choice -- which is a pure
function of (ontology, query, budget) -- hits the same entries in every
process.  The cache never interprets a payload: the module that
produces a kind encodes it for :meth:`RewritingCache.put` and passes
its decoder to :meth:`RewritingCache.get`.

Every row also records its *owner*: the digest of the full ontology of
the session that wrote it.  Eviction goes by owner, so a session's
residual rewritings and core snapshots -- keyed by the digest of the
rule subset they were compiled from -- leave with that session's
ontology, and with nothing else.

Robustness
----------

A cache must never take answering down with it.  All read/write paths
swallow storage and decode errors (counted on the
``api.cache.errors`` obs counter) and degrade to recomputation; a
corrupt cache file is moved aside to ``<name>.corrupt`` and a fresh
cache is started in its place.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

from repro import obs
from repro.lang.printer import format_ucq
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.tgd import TGD
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.datalog_target import DatalogRewriting
from repro.rewriting.rewriter import RewritingResult
from repro.rewriting.store import (
    budget_digest,
    decode_rewriting,
    encode_rewriting,
    ontology_digest,
    query_digest,
)

CACHE_SCHEMA_VERSION = 5
"""On-disk layout version; a mismatch resets the cache file.

Version 5 keeps every artifact kind in one ``artifacts`` table with a
``kind`` column and an ``owner`` eviction group; it replaced version
4's three tables (``rewritings``, ``datalog_rewritings``,
``materialized_cores``).  Opening a file of any other version drops
every table it holds and starts empty.
"""

DEFAULT_CACHE_FILENAME = "rewritings.sqlite"

_T = TypeVar("_T")


def _engine_version() -> str:
    # Read dynamically (not at import time) so a monkeypatched version
    # bump in tests -- or a hot-reloaded engine -- is honoured per call.
    from repro.rewriting import engine

    return str(engine.ENGINE_VERSION)


@dataclass(frozen=True)
class CacheKey:
    """The full address of one stored artifact.

    ``target`` is the artifact kind (``"ucq"``, ``"datalog"`` or
    ``"core"``); keys of different kinds never collide even though
    they embed the same content digests.  A core snapshot's key
    (:func:`repro.hybrid.store.core_key`) holds the core rules' digest,
    the ABox digest in place of a query's, the chase step budget and
    the snapshot version.
    """

    ontology_digest: str
    query_digest: str
    budget_digest: str
    engine_version: str
    target: str = "ucq"

    @classmethod
    def of(
        cls,
        rules: Sequence[TGD],
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        budget: RewritingBudget,
        target: str = "ucq",
    ) -> "CacheKey":
        """Build the key for (ontology, query, budget, target) at the
        current engine version."""
        return cls(
            ontology_digest=ontology_digest(rules),
            query_digest=query_digest(query),
            budget_digest=budget_digest(budget),
            engine_version=_engine_version(),
            target=target,
        )

    @property
    def combined(self) -> str:
        """The single string primary key of the ``artifacts`` table."""
        return "/".join(
            (
                self.engine_version,
                self.target,
                self.ontology_digest,
                self.budget_digest,
                self.query_digest,
            )
        )


@dataclass(frozen=True)
class CacheStats:
    """Lifetime statistics of one :class:`RewritingCache` handle."""

    hits: int
    misses: int
    writes: int
    errors: int


class RewritingCache:
    """SQLite-backed persistent map ``CacheKey -> payload``.

    One cache file serves any number of ontologies, budgets, engine
    versions and artifact kinds concurrently (the key embeds all of
    them), from any number of threads or processes (SQLite's file
    locking plus a generous busy timeout).  Construction never raises
    on a broken file -- see the module docstring.
    """

    def __init__(
        self, directory: str | Path, filename: str = DEFAULT_CACHE_FILENAME
    ) -> None:
        self._directory = Path(directory)
        self._path = self._directory / filename
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._errors = 0
        self._connection: sqlite3.Connection | None = None
        self._open()

    # ----------------------------------------------------------------- #
    # Lifecycle                                                           #
    # ----------------------------------------------------------------- #

    @property
    def path(self) -> Path:
        """The cache file (``<cache-dir>/rewritings.sqlite``)."""
        return self._path

    @property
    def available(self) -> bool:
        """False when the cache is closed or could not be opened."""
        return self._connection is not None

    def _open(self) -> None:
        try:
            self._directory.mkdir(parents=True, exist_ok=True)
            # audit: ok[RL302] runs from __init__ before the object is shared
            self._connection = self._connect()
        except (sqlite3.Error, OSError):
            self._quarantine()

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(
            self._path, check_same_thread=False, timeout=30.0
        )
        connection.execute(
            "CREATE TABLE IF NOT EXISTS meta "
            "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is not None and row[0] != str(CACHE_SCHEMA_VERSION):
            # Another layout: drop every table it holds, whatever its
            # version named them.
            tables = connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name != 'meta' AND name NOT LIKE 'sqlite_%'"
            ).fetchall()
            for (table,) in tables:
                connection.execute(f'DROP TABLE IF EXISTS "{table}"')
            connection.execute("DELETE FROM meta")
            row = None
        if row is None:
            connection.execute(
                "INSERT OR REPLACE INTO meta VALUES "
                "('schema_version', ?)",
                (str(CACHE_SCHEMA_VERSION),),
            )
        connection.execute(
            """
            CREATE TABLE IF NOT EXISTS artifacts (
                cache_key  TEXT PRIMARY KEY,
                kind       TEXT NOT NULL,
                owner      TEXT NOT NULL,
                payload    TEXT NOT NULL,
                query_text TEXT NOT NULL DEFAULT '',
                created_at TEXT NOT NULL DEFAULT (datetime('now'))
            )
            """
        )
        connection.execute(
            "CREATE INDEX IF NOT EXISTS ix_artifacts_owner "
            "ON artifacts (owner)"
        )
        connection.commit()
        return connection

    def _quarantine(self) -> None:
        """Move a broken cache file aside and start a fresh one.

        Every caller already holds ``self._lock`` (or runs from
        ``__init__`` before the object is shared), so the connection
        swaps below cannot race.
        """
        self._record_error("open")
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            # audit: ok[RL302] callers hold self._lock (see docstring)
            self._connection = None
        try:
            if self._path.exists():
                self._path.replace(self._path.with_suffix(".corrupt"))
            # audit: ok[RL302] callers hold self._lock (see docstring)
            self._connection = self._connect()
            obs.event("api.cache.reset", path=str(self._path))
        except (sqlite3.Error, OSError):
            # Even the fresh file failed (unwritable directory, ...):
            # stay disabled; every lookup is a miss, every put a no-op.
            # audit: ok[RL302] callers hold self._lock (see docstring)
            self._connection = None

    def close(self) -> None:
        """Release the SQLite handle (idempotent)."""
        with self._lock:
            if self._connection is not None:
                try:
                    self._connection.close()
                finally:
                    self._connection = None

    def __enter__(self) -> "RewritingCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------------- #
    # Lookup / store                                                      #
    # ----------------------------------------------------------------- #

    def get(
        self, key: CacheKey, decode: Callable[[str], _T | None]
    ) -> _T | None:
        """The artifact stored under *key*, decoded, or None.

        *decode* is the kind's codec: it turns the payload back into
        the artifact.  A row it rejects (returns None or raises: a torn
        write, a hand-edited file, a stale layout) counts as an error
        and a miss and is deleted, so the caller recomputes and stores
        it afresh.  Never raises.
        """
        with self._lock:
            row = None
            if self._connection is not None:
                try:
                    row = self._connection.execute(
                        "SELECT payload FROM artifacts WHERE cache_key = ?",
                        (key.combined,),
                    ).fetchone()
                except sqlite3.DatabaseError:
                    self._quarantine()
            if row is not None:
                try:
                    value = decode(str(row[0]))
                except Exception:
                    value = None
                if value is not None:
                    self._hits += 1
                    obs.count("api.cache.hits")
                    return value
                self._record_error("decode")
                self._execute(
                    "DELETE FROM artifacts WHERE cache_key = ?",
                    (key.combined,),
                )
            self._misses += 1
            obs.count("api.cache.misses")
            return None

    def put(
        self,
        key: CacheKey,
        payload: str,
        *,
        owner: str | None = None,
        query_text: str = "",
    ) -> None:
        """Persist the encoded artifact *payload* under *key*.  Never
        raises.

        *owner* is the row's eviction group: the digest of the full
        ontology of the session writing it (default: the key's own
        ontology digest).  *query_text* is the canonical text of the
        input query; storing it makes the entry reachable by
        :meth:`stored_queries` (warm-up enumeration).
        """
        with self._lock:
            written = self._execute(
                "INSERT OR REPLACE INTO artifacts "
                "(cache_key, kind, owner, payload, query_text) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    key.combined,
                    key.target,
                    key.ontology_digest if owner is None else owner,
                    payload,
                    query_text,
                ),
            )
            if written is not None:
                self._writes += 1
                obs.count("api.cache.writes")

    def _execute(self, sql: str, params: Sequence[str] = ()) -> int | None:
        """Run and commit one write; the caller holds ``self._lock``.

        Returns the rows it changed, or None when the cache is
        unavailable or the write failed (the file is then quarantined).
        """
        if self._connection is None:
            return None
        try:
            changed = self._connection.execute(sql, params).rowcount
            self._connection.commit()
            return changed
        except sqlite3.DatabaseError:
            self._quarantine()
            return None

    def _record_error(self, kind: str) -> None:
        self._errors += 1
        obs.count("api.cache.errors")
        obs.event("api.cache.error", kind=kind, path=str(self._path))

    # ----------------------------------------------------------------- #
    # Maintenance / introspection                                         #
    # ----------------------------------------------------------------- #

    def stats(self) -> CacheStats:
        """Hit/miss/write/error totals of this handle's lifetime."""
        with self._lock:
            return CacheStats(self._hits, self._misses, self._writes, self._errors)

    def _query(self, sql: str, params: Sequence[str] = ()) -> list[tuple]:
        """All rows of one read, or none on a closed or broken cache."""
        with self._lock:
            if self._connection is None:
                return []
            try:
                return self._connection.execute(sql, params).fetchall()
            except sqlite3.DatabaseError:
                self._quarantine()
                return []

    def __len__(self) -> int:
        return sum(self.counts().values())

    def counts(self) -> dict[str, int]:
        """Per-kind entry counts: ``{"ucq": n, "datalog": m, "cores": k}``.

        Never raises; a closed or broken cache reports zeros.
        """
        counts = dict(
            self._query("SELECT kind, COUNT(*) FROM artifacts GROUP BY kind")
        )
        return {
            "ucq": counts.get("ucq", 0),
            "datalog": counts.get("datalog", 0),
            "cores": counts.get("core", 0),
        }

    def ontologies(self) -> Iterator[tuple[str, int]]:
        """(owner ontology digest, entry count) pairs currently stored."""
        rows = self._query(
            "SELECT owner, COUNT(*) FROM artifacts "
            "GROUP BY owner ORDER BY owner"
        )
        return iter([(str(owner), int(n)) for owner, n in rows])

    def stored_queries(
        self,
        ontology_digest: str | None = None,
        budget_digest: str | None = None,
        engine_version: str | None = None,
    ) -> list[tuple[str, str]]:
        """(query text, target) pairs of enumerable stored rewritings.

        The warm-up path: a restarting server lists what previous
        processes compiled for its ontology and re-prepares each entry,
        so steady state is reached with zero fresh rewrites.  Filters
        narrow by the digests and version in the *key* -- the rules a
        rewriting was compiled from, never the row's owner: a residual
        rewriting belongs to its session but was compiled from a rule
        subset, and re-preparing it over the full ontology would be a
        different (possibly unbounded) compilation.  Rows stored
        without query text are skipped.  Never raises.
        """
        wanted = (engine_version, None, ontology_digest, budget_digest)
        results = set()
        for cache_key, query_text in self._query(
            "SELECT cache_key, query_text FROM artifacts "
            "WHERE kind != 'core' AND query_text != ''"
        ):
            # combined key: version/target/ontology/budget/query
            parts = str(cache_key).split("/")
            if len(parts) == 5 and all(
                want is None or want == part
                for want, part in zip(wanted, parts)
            ):
                results.add((str(query_text), parts[1]))
        return sorted(results)

    def evict_ontologies(self, keep: set[str] | frozenset[str]) -> int:
        """Drop entries whose owner is not in *keep*.

        Stale entries are unreachable anyway (the digest is part of the
        key); this reclaims their disk space.  Returns rows deleted.
        """
        placeholders = ",".join("?" for _ in keep) or "''"
        with self._lock:
            deleted = self._execute(
                f"DELETE FROM artifacts WHERE owner NOT IN ({placeholders})",
                tuple(sorted(keep)),
            )
        return deleted or 0


class EngineTier:
    """Binds a :class:`RewritingCache` to one engine's compilations.

    Implements :class:`repro.rewriting.engine.PersistentTier`: the
    compiled rules' and budget's digests are fixed at construction, the
    query digest is computed and the engine version read per call, the
    payloads are :mod:`repro.rewriting.store`'s codec, and every row is
    owned by *owner*, the writing session's full-ontology digest.
    """

    def __init__(
        self,
        cache: RewritingCache,
        rules: Sequence[TGD],
        budget: RewritingBudget,
        owner: str,
    ) -> None:
        self._cache = cache
        self._ontology_digest = ontology_digest(rules)
        self._budget_digest = budget_digest(budget)
        self._owner = owner

    def _key(self, ucq: UnionOfConjunctiveQueries, target: str) -> CacheKey:
        return CacheKey(
            self._ontology_digest,
            query_digest(ucq),
            self._budget_digest,
            _engine_version(),
            target,
        )

    def get(
        self, ucq: UnionOfConjunctiveQueries, target: str
    ) -> RewritingResult | DatalogRewriting | None:
        return self._cache.get(self._key(ucq, target), decode_rewriting)

    def put(
        self,
        ucq: UnionOfConjunctiveQueries,
        target: str,
        result: RewritingResult | DatalogRewriting,
    ) -> None:
        self._cache.put(
            self._key(ucq, target),
            encode_rewriting(result),
            owner=self._owner,
            query_text=format_ucq(ucq),
        )
