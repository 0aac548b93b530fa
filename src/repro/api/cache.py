"""Persistent on-disk cache of compiled query rewritings.

OBDA deployments compile a query once and serve it for the lifetime of
the ontology; the compilation (UCQ rewriting) is the expensive step and
depends only on the (ontology, query, budget, rewriter-version)
quadruple -- never on the data.  :class:`RewritingCache` persists that
mapping in a single SQLite file so every later process (another CLI
invocation, a pool worker, tomorrow's server restart) skips the
rewriting entirely.

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

plus the *rewriting target* (``"ucq"`` or ``"datalog"``): the two
targets compile to different artifact kinds (an exploded UCQ vs. a
stratified rule program), stored in separate tables and addressed by
keys that can never collide.  A session opened with ``target="auto"``
stores entries under the *resolved* target, so the estimator-driven
choice -- which is a pure function of (ontology, query, budget) --
hits the same entries in every process.

Robustness
----------

A cache must never take answering down with it.  All read/write paths
swallow storage and decode errors (counted on the
``api.cache.errors`` obs counter) and degrade to recomputation; a
corrupt cache file is moved aside to ``<name>.corrupt`` and a fresh
cache is started in its place.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TypeVar

from repro import obs
from repro.lang.parser import parse_program, parse_ucq
from repro.lang.printer import format_program, format_ucq
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.tgd import TGD
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.datalog_target import DatalogRewriting
from repro.rewriting.rewriter import RewritingResult
from repro.rewriting.store import budget_digest, ontology_digest, query_digest

CACHE_SCHEMA_VERSION = 4
"""On-disk layout version; a mismatch resets the cache file.

Version 2 added the ``datalog_rewritings`` table (the nonrecursive-
Datalog target's artifacts) and the target discriminator in cache keys.
Version 3 added the ``query_text`` column to both tables: the canonical
text of the *input* query, which makes stored entries enumerable --
the serving layer's boot warm-up (:meth:`repro.api.Session.warm_up`)
re-prepares every stored query of an ontology so a restarted server
reaches steady state with zero fresh rewrites.
Version 4 added the ``materialized_cores`` table: chased-core
snapshots of the hybrid answering layer (:mod:`repro.hybrid.store`),
keyed by (core rules, ABox, budget) and carrying the full ontology
digest so :meth:`RewritingCache.evict_ontologies` retires them
together with the ontology's rewritings.
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
    """The full address of one compiled rewriting.

    ``target`` discriminates the artifact kind (``"ucq"`` or
    ``"datalog"``); keys of different targets never collide even
    though both embed the same content digests.
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
        """The single string primary key used in the SQLite tables."""
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
    """SQLite-backed persistent map ``CacheKey -> RewritingResult``.

    One cache file serves any number of ontologies, budgets and engine
    versions concurrently (the key embeds all of them), from any number
    of threads or processes (SQLite's file locking plus a generous busy
    timeout).  Construction never raises on a broken file -- see the
    module docstring.
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
            connection.executescript(
                "DROP TABLE IF EXISTS rewritings; "
                "DROP TABLE IF EXISTS datalog_rewritings; "
                "DROP TABLE IF EXISTS materialized_cores; "
                "DELETE FROM meta;"
            )
            row = None
        if row is None:
            connection.execute(
                "INSERT OR REPLACE INTO meta VALUES "
                "('schema_version', ?)",
                (str(CACHE_SCHEMA_VERSION),),
            )
        connection.execute(
            """
            CREATE TABLE IF NOT EXISTS rewritings (
                cache_key       TEXT PRIMARY KEY,
                ontology_digest TEXT NOT NULL,
                query_digest    TEXT NOT NULL,
                budget_digest   TEXT NOT NULL,
                engine_version  TEXT NOT NULL,
                complete        INTEGER NOT NULL,
                depth_reached   INTEGER NOT NULL,
                generated       INTEGER NOT NULL,
                explored        INTEGER NOT NULL,
                per_depth       TEXT NOT NULL,
                ucq             TEXT NOT NULL,
                query_text      TEXT NOT NULL DEFAULT '',
                created_at      TEXT NOT NULL DEFAULT (datetime('now'))
            )
            """
        )
        connection.execute(
            "CREATE INDEX IF NOT EXISTS ix_rewritings_ontology "
            "ON rewritings (ontology_digest)"
        )
        connection.execute(
            """
            CREATE TABLE IF NOT EXISTS datalog_rewritings (
                cache_key       TEXT PRIMARY KEY,
                ontology_digest TEXT NOT NULL,
                payload         TEXT NOT NULL,
                query_text      TEXT NOT NULL DEFAULT '',
                created_at      TEXT NOT NULL DEFAULT (datetime('now'))
            )
            """
        )
        connection.execute(
            "CREATE INDEX IF NOT EXISTS ix_datalog_rewritings_ontology "
            "ON datalog_rewritings (ontology_digest)"
        )
        connection.execute(
            """
            CREATE TABLE IF NOT EXISTS materialized_cores (
                cache_key       TEXT PRIMARY KEY,
                ontology_digest TEXT NOT NULL,
                payload         TEXT NOT NULL,
                created_at      TEXT NOT NULL DEFAULT (datetime('now'))
            )
            """
        )
        connection.execute(
            "CREATE INDEX IF NOT EXISTS ix_materialized_cores_ontology "
            "ON materialized_cores (ontology_digest)"
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

    def get(self, key: CacheKey) -> RewritingResult | None:
        """The stored rewriting under *key*, or None.  Never raises."""
        return self._read(
            "rewritings",
            "complete, depth_reached, generated, explored, per_depth, ucq",
            key.combined,
            _decode_result,
        )

    def put(
        self,
        key: CacheKey,
        result: RewritingResult,
        query_text: str = "",
    ) -> None:
        """Persist *result* under *key*.  Never raises.

        *query_text* is the canonical text of the input query; storing
        it makes the entry reachable by :meth:`stored_queries` (warm-up
        enumeration).  Empty is allowed -- the entry still serves
        lookups, it just cannot be re-prepared by digest alone.
        """
        self._write(
            "rewritings",
            {
                "cache_key": key.combined,
                "ontology_digest": key.ontology_digest,
                "query_digest": key.query_digest,
                "budget_digest": key.budget_digest,
                "engine_version": key.engine_version,
                "complete": int(result.complete),
                "depth_reached": result.depth_reached,
                "generated": result.generated,
                "explored": result.explored,
                "per_depth": json.dumps(list(result.per_depth)),
                "ucq": format_ucq(result.ucq),
                "query_text": query_text,
            },
        )

    def get_datalog(self, key: CacheKey) -> DatalogRewriting | None:
        """The stored Datalog-target rewriting under *key*, or None.
        Never raises."""
        return self._read(
            "datalog_rewritings",
            "payload",
            key.combined,
            lambda row: _decode_datalog(row[0]),
        )

    def put_datalog(
        self,
        key: CacheKey,
        result: DatalogRewriting,
        query_text: str = "",
    ) -> None:
        """Persist the Datalog-target *result* under *key*.  Never
        raises."""
        self._write(
            "datalog_rewritings",
            {
                "cache_key": key.combined,
                "ontology_digest": key.ontology_digest,
                "payload": _encode_datalog(result),
                "query_text": query_text,
            },
        )

    def get_core(
        self, cache_key: str, decode: Callable[[str], _T | None]
    ) -> _T | None:
        """The stored materialized-core snapshot, decoded, or None.

        Keys come from :func:`repro.hybrid.store.core_key`; *decode*
        turns the opaque JSON produced by ``encode_core`` back into a
        core and returns None for a payload it rejects.  Never raises.
        """
        return self._read(
            "materialized_cores",
            "payload",
            cache_key,
            lambda row: decode(str(row[0])),
        )

    def put_core(
        self, cache_key: str, ontology_digest: str, payload: str
    ) -> None:
        """Persist a materialized-core snapshot.  Never raises.

        *ontology_digest* is the **full** ontology's digest -- not the
        core subset's -- so :meth:`evict_ontologies` retires core
        snapshots together with the ontology's rewritings.
        """
        self._write(
            "materialized_cores",
            {
                "cache_key": cache_key,
                "ontology_digest": ontology_digest,
                "payload": payload,
            },
        )

    def _read(
        self,
        table: str,
        columns: str,
        cache_key: str,
        decode: Callable[[Any], _T | None],
    ) -> _T | None:
        """The one lookup path behind every artifact kind.

        A row that fails to decode (torn write, hand-edited file, a
        payload the decoder rejects) counts as an error and a miss and
        is deleted, so the caller recomputes and stores it afresh.
        """
        with self._lock:
            row = None
            if self._connection is not None:
                try:
                    row = self._connection.execute(
                        f"SELECT {columns} FROM {table} WHERE cache_key = ?",
                        (cache_key,),
                    ).fetchone()
                except sqlite3.DatabaseError:
                    self._quarantine()
            if row is not None:
                try:
                    value = decode(row)
                except Exception:
                    value = None
                if value is not None:
                    self._hits += 1
                    obs.count("api.cache.hits")
                    return value
                self._record_error("decode")
                self._delete(table, cache_key)
            self._misses += 1
            obs.count("api.cache.misses")
            return None

    def _write(self, table: str, row: dict[str, Any]) -> None:
        """The one store path: ``INSERT OR REPLACE`` *row* into *table*."""
        with self._lock:
            if self._connection is None:
                return
            try:
                self._connection.execute(
                    f"INSERT OR REPLACE INTO {table} ({', '.join(row)}) "
                    f"VALUES ({', '.join('?' for _ in row)})",
                    tuple(row.values()),
                )
                self._connection.commit()
                self._writes += 1
                obs.count("api.cache.writes")
            except sqlite3.DatabaseError:
                self._quarantine()

    def _delete(self, table: str, cache_key: str) -> None:
        if self._connection is None:
            return
        try:
            self._connection.execute(
                f"DELETE FROM {table} WHERE cache_key = ?", (cache_key,)
            )
            self._connection.commit()
        except sqlite3.DatabaseError:
            self._quarantine()

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

    def __len__(self) -> int:
        with self._lock:
            if self._connection is None:
                return 0
            try:
                row = self._connection.execute(
                    "SELECT (SELECT COUNT(*) FROM rewritings) + "
                    "(SELECT COUNT(*) FROM datalog_rewritings) + "
                    "(SELECT COUNT(*) FROM materialized_cores)"
                ).fetchone()
                return int(row[0])
            except sqlite3.DatabaseError:
                self._quarantine()
                return 0

    def ontologies(self) -> Iterator[tuple[str, int]]:
        """(ontology digest, entry count) pairs currently stored."""
        with self._lock:
            if self._connection is None:
                return iter(())
            try:
                rows = self._connection.execute(
                    "SELECT ontology_digest, COUNT(*) FROM ("
                    "SELECT ontology_digest FROM rewritings "
                    "UNION ALL "
                    "SELECT ontology_digest FROM datalog_rewritings "
                    "UNION ALL "
                    "SELECT ontology_digest FROM materialized_cores) "
                    "GROUP BY ontology_digest ORDER BY ontology_digest"
                ).fetchall()
            except sqlite3.DatabaseError:
                self._quarantine()
                return iter(())
        return iter([(str(d), int(n)) for d, n in rows])

    def counts(self) -> dict[str, int]:
        """Per-table entry counts: ``{"ucq": n, "datalog": m, "cores": k}``.

        Never raises; a closed or broken cache reports zeros.
        """
        with self._lock:
            if self._connection is None:
                return {"ucq": 0, "datalog": 0, "cores": 0}
            try:
                row = self._connection.execute(
                    "SELECT (SELECT COUNT(*) FROM rewritings), "
                    "(SELECT COUNT(*) FROM datalog_rewritings), "
                    "(SELECT COUNT(*) FROM materialized_cores)"
                ).fetchone()
                return {
                    "ucq": int(row[0]),
                    "datalog": int(row[1]),
                    "cores": int(row[2]),
                }
            except sqlite3.DatabaseError:
                self._quarantine()
                return {"ucq": 0, "datalog": 0, "cores": 0}

    def stored_queries(
        self,
        ontology_digest: str | None = None,
        budget_digest: str | None = None,
        engine_version: str | None = None,
    ) -> list[tuple[str, str]]:
        """(query text, target) pairs of enumerable stored entries.

        The warm-up path: a restarting server lists what previous
        processes compiled for its ontology and re-prepares each entry,
        so steady state is reached with zero fresh rewrites.  Entries
        written before schema v3 (empty ``query_text``) are skipped --
        they still serve digest lookups, they just cannot be enumerated.
        Filters narrow by ontology digest and -- via the structured key
        prefix -- budget digest and engine version.  Never raises.
        """
        with self._lock:
            if self._connection is None:
                return []
            results: list[tuple[str, str]] = []
            try:
                for table, target in (
                    ("rewritings", "ucq"),
                    ("datalog_rewritings", "datalog"),
                ):
                    sql = (
                        f"SELECT cache_key, query_text FROM {table} "
                        "WHERE query_text != ''"
                    )
                    params: list[str] = []
                    if ontology_digest is not None:
                        sql += " AND ontology_digest = ?"
                        params.append(ontology_digest)
                    for row in self._connection.execute(sql, params):
                        # combined key: version/target/ontology/budget/query
                        parts = str(row[0]).split("/")
                        if len(parts) != 5:
                            continue
                        if engine_version is not None and parts[0] != engine_version:
                            continue
                        if budget_digest is not None and parts[3] != budget_digest:
                            continue
                        results.append((str(row[1]), target))
            except sqlite3.DatabaseError:
                self._quarantine()
                return []
        return sorted(set(results))

    def evict_ontologies(self, keep: set[str] | frozenset[str]) -> int:
        """Drop entries whose ontology digest is not in *keep*.

        Stale entries are unreachable anyway (the digest is part of the
        key); this reclaims their disk space.  Returns rows deleted.
        """
        with self._lock:
            if self._connection is None:
                return 0
            try:
                before = len(self)
                placeholders = ",".join("?" for _ in keep) or "''"
                for table in (
                    "rewritings",
                    "datalog_rewritings",
                    "materialized_cores",
                ):
                    self._connection.execute(
                        f"DELETE FROM {table} WHERE ontology_digest "
                        f"NOT IN ({placeholders})",
                        tuple(sorted(keep)),
                    )
                self._connection.commit()
                return before - len(self)
            except sqlite3.DatabaseError:
                self._quarantine()
                return 0


class EngineTier:
    """Adapter binding a :class:`RewritingCache` to one engine's context.

    Implements the :class:`repro.rewriting.engine.PersistentTier`
    protocol: the ontology/budget digests are fixed at construction
    (they are per-session), the query digest is computed per call, and
    the engine version is read at call time.
    """

    def __init__(
        self,
        cache: RewritingCache,
        rules: Sequence[TGD],
        budget: RewritingBudget,
    ) -> None:
        self._cache = cache
        self._ontology_digest = ontology_digest(rules)
        self._budget_digest = budget_digest(budget)

    def _key(
        self, ucq: UnionOfConjunctiveQueries, target: str = "ucq"
    ) -> CacheKey:
        return CacheKey(
            ontology_digest=self._ontology_digest,
            query_digest=query_digest(ucq),
            budget_digest=self._budget_digest,
            engine_version=_engine_version(),
            target=target,
        )

    def get(self, ucq: UnionOfConjunctiveQueries) -> RewritingResult | None:
        return self._cache.get(self._key(ucq))

    def put(self, ucq: UnionOfConjunctiveQueries, result: RewritingResult) -> None:
        self._cache.put(self._key(ucq), result, query_text=format_ucq(ucq))

    def get_datalog(
        self, ucq: UnionOfConjunctiveQueries
    ) -> DatalogRewriting | None:
        return self._cache.get_datalog(self._key(ucq, target="datalog"))

    def put_datalog(
        self, ucq: UnionOfConjunctiveQueries, result: DatalogRewriting
    ) -> None:
        self._cache.put_datalog(
            self._key(ucq, target="datalog"), result, query_text=format_ucq(ucq)
        )


def _decode_result(row: Any) -> RewritingResult:
    complete, depth_reached, generated, explored, per_depth, ucq_text = row
    return RewritingResult(
        ucq=parse_ucq(ucq_text),
        complete=bool(complete),
        depth_reached=int(depth_reached),
        generated=int(generated),
        explored=int(explored),
        per_depth=tuple(json.loads(per_depth)),
        # Derivation lineage is not persisted; disk-served results
        # answer queries identically but cannot explain disjuncts.
        lineage={},
    )


def _encode_datalog(result: DatalogRewriting) -> str:
    """Serialise a Datalog-target rewriting to a JSON payload.

    The rules round-trip through the textual program syntax (every
    aux/goal rule is a full TGD, so :func:`parse_program` accepts it);
    rule labels are not preserved, which is harmless -- they play no
    role in evaluation, SQL compilation or equality of answers.
    """
    return json.dumps(
        {
            "goal": result.goal,
            "arity": result.arity,
            "complete": result.complete,
            "depth_reached": result.depth_reached,
            "generated": result.generated,
            "fallback_disjuncts": result.fallback_disjuncts,
            "aux_rules": format_program(result.aux_rules),
            "goal_rules": format_program(result.goal_rules),
        }
    )


def _parse_rules(text: str) -> tuple[TGD, ...]:
    # parse_program labels unlabelled rules R1, R2, ...; the emitter
    # leaves rules unlabelled, so strip the synthetic labels to make
    # disk-served programs print byte-identically to fresh ones.
    from repro.lang.tgd import TGD

    return tuple(TGD(r.body, r.head) for r in parse_program(text))


def _decode_datalog(payload: str) -> DatalogRewriting:
    data = json.loads(payload)
    return DatalogRewriting(
        goal=str(data["goal"]),
        arity=int(data["arity"]),
        aux_rules=_parse_rules(data["aux_rules"]),
        goal_rules=_parse_rules(data["goal_rules"]),
        complete=bool(data["complete"]),
        depth_reached=int(data["depth_reached"]),
        generated=int(data["generated"]),
        fallback_disjuncts=int(data["fallback_disjuncts"]),
    )
