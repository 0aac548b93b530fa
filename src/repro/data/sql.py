"""UCQ-to-SQL compilation and a SQLite execution backend.

First-order rewritability (Definition 1) is valuable precisely because
the rewritten query can be handed to a plain RDBMS.  This module closes
that loop: :func:`ucq_to_sql` compiles a UCQ into a ``SELECT ... UNION``
statement, and :class:`SQLiteBackend` materialises a
:class:`~repro.data.database.Database` into SQLite tables and executes
the SQL, so ontology-mediated query answering really does run as SQL
over the original data (paper Section 1: "the complexity of query
answering ... matches the complexity of query evaluation in classical
DBMSs").

Every value is stored in a tagged text encoding (``s:`` for strings,
``i:`` for integers, ``n:`` for labeled nulls) so heterogeneous constant
types round-trip exactly and the Unique Name Assumption is preserved by
SQL equality.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Iterable, Sequence

from repro import obs
from repro.data.database import Database
from repro.lang.atoms import Atom
from repro.lang.errors import ReproError
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.signature import Signature
from repro.lang.terms import Constant, Null, Term, Variable


# Virtual-machine instructions between progress-handler callbacks when
# instrumentation is on; small enough to resolve per-query work, large
# enough to keep the callback itself off the profile.
_PROGRESS_GRANULARITY = 256

# SQLite rejects a compound SELECT of more terms than this
# (SQLITE_MAX_COMPOUND_SELECT); longer unions are nested in chunks.
_MAX_COMPOUND_TERMS = 500


def _encode(term: Term) -> str:
    if isinstance(term, Constant):
        if isinstance(term.value, bool):
            raise ReproError("boolean constants are not supported in SQL backend")
        if isinstance(term.value, int):
            return f"i:{term.value}"
        return f"s:{term.value}"
    if isinstance(term, Null):
        return f"n:{term.label}"
    raise ReproError(f"cannot encode non-ground term {term!r}")


def _decode(text: str) -> Term:
    tag, _, payload = text.partition(":")
    if tag == "i":
        return Constant(int(payload))
    if tag == "s":
        return Constant(payload)
    if tag == "n":
        return Null(payload)
    raise ReproError(f"malformed encoded value {text!r}")


def _sql_literal(term: Term) -> str:
    encoded = _encode(term).replace("'", "''")
    return f"'{encoded}'"


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def cq_to_sql(query: ConjunctiveQuery) -> str:
    """Compile one CQ into a ``SELECT DISTINCT`` over self-joined tables.

    Each body atom becomes a table alias ``t0, t1, ...``; variable
    co-occurrence becomes equality predicates; constants become
    equality with literals.  Boolean queries select the literal ``1``.
    """
    aliases = [f"t{i}" for i in range(len(query.body))]
    from_clause = ", ".join(
        f"{_quote_ident(atom.relation)} AS {alias}"
        for atom, alias in zip(query.body, aliases)
    )
    first_site: dict[Variable, str] = {}
    conditions: list[str] = []
    for atom, alias in zip(query.body, aliases):
        for position, term in enumerate(atom.terms, start=1):
            column = f"{alias}.c{position}"
            if isinstance(term, Variable):
                anchor = first_site.get(term)
                if anchor is None:
                    first_site[term] = column
                else:
                    conditions.append(f"{column} = {anchor}")
            else:
                conditions.append(f"{column} = {_sql_literal(term)}")
    if query.answer_terms:
        select_items = []
        for i, term in enumerate(query.answer_terms):
            if isinstance(term, Variable):
                select_items.append(f"{first_site[term]} AS a{i}")
            else:
                select_items.append(f"{_sql_literal(term)} AS a{i}")
        select_clause = ", ".join(select_items)
    else:
        select_clause = "1 AS a0"
    sql = f"SELECT DISTINCT {select_clause} FROM {from_clause}"
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    return sql


def ucq_to_sql(query: UnionOfConjunctiveQueries | ConjunctiveQuery) -> str:
    """Compile a UCQ into a ``UNION`` of per-disjunct ``SELECT`` blocks."""
    ucq = UnionOfConjunctiveQueries.of(query)
    with obs.span("sql.compile", disjuncts=len(ucq)):
        return _compound([cq_to_sql(cq) for cq in ucq], "UNION")


def _compound(selects: list[str], operator: str) -> str:
    """Join *selects* with *operator* (``UNION`` or ``UNION ALL``).

    Past SQLite's cap on the terms of one compound SELECT, the terms
    are grouped into chunks of at most that many, each chunk a
    ``SELECT * FROM (...)`` term of the outer compound.
    """
    separator = f"\n{operator}\n"
    while len(selects) > _MAX_COMPOUND_TERMS:
        selects = [
            "SELECT * FROM (\n"
            + separator.join(selects[start:start + _MAX_COMPOUND_TERMS])
            + "\n)"
            for start in range(0, len(selects), _MAX_COMPOUND_TERMS)
        ]
    return separator.join(selects)


def _rule_to_cq(rule) -> ConjunctiveQuery:
    """View a full TGD as the CQ selecting its head tuple."""
    head = rule.head[0]
    return ConjunctiveQuery(head.terms, rule.body, name=head.relation)


def datalog_to_sql(rewriting) -> str:
    """Compile a :class:`~repro.rewriting.datalog_target.DatalogRewriting`
    into a single ``WITH`` query.

    One CTE per auxiliary predicate (its defining rules merged with
    ``UNION ALL``; the per-branch ``SELECT DISTINCT`` keeps each CTE
    duplicate-light) and a final ``SELECT DISTINCT`` over the
    ``UNION ALL`` of the goal rules.  CTE columns follow the backend's
    base-table convention (``c1 .. ck``, ``c0`` for arity 0), so
    :func:`cq_to_sql` compiles goal bodies against CTEs and base tables
    alike.  The output is byte-deterministic: the rewriting's rules are
    already normalized and sorted, and the emitter adds no
    order-sensitive choices of its own.
    """
    with obs.span(
        "sql.compile_datalog",
        rules=len(rewriting.aux_rules) + len(rewriting.goal_rules),
    ):
        groups: dict[str, list] = {}
        for rule in rewriting.aux_rules:
            groups.setdefault(rule.head[0].relation, []).append(rule)
        ctes = []
        for name, rules in groups.items():
            arity = rules[0].head[0].arity
            columns = ", ".join(
                f"c{i}" for i in range(1, arity + 1)
            ) or "c0"
            selects = _compound(
                [cq_to_sql(_rule_to_cq(rule)) for rule in rules], "UNION ALL"
            )
            ctes.append(
                f"{_quote_ident(name)}({columns}) AS (\n{selects}\n)"
            )
        goal_selects = _compound(
            [cq_to_sql(_rule_to_cq(rule)) for rule in rewriting.goal_rules],
            "UNION ALL",
        )
        columns = ", ".join(
            f"a{i}" for i in range(rewriting.arity)
        ) or "a0"
        outer = f"SELECT DISTINCT {columns} FROM (\n{goal_selects}\n)"
        if not ctes:
            return outer
        return "WITH " + ",\n".join(ctes) + "\n" + outer


class SQLiteBackend:
    """A SQLite-backed relational store mirroring a :class:`Database`.

    Intended usage::

        backend = SQLiteBackend.from_database(db)
        rows = backend.execute_ucq(rewriting)

    The backend creates one table per relation with columns
    ``c1 ... ck`` and a covering index per column, then evaluates
    compiled SQL with ordinary SQLite query processing.

    It is the one evaluation backend: :class:`repro.api.Session` keeps
    one as the *mirror* of each instance it answers over (the virtual
    ABox, a hybrid core's instance) and keeps it in step with
    :meth:`load` and :meth:`delete`.

    The backend is safe to share across the worker threads of
    :meth:`repro.api.Session.answer_many` and the serving layer's
    executor: one connection is opened with ``check_same_thread=False``
    and every statement runs under an internal lock (SQLite serialises
    at the C level anyway; the lock also keeps the progress-handler
    tick accounting exact).  ``close`` is idempotent, and using a
    closed backend raises :class:`~repro.lang.errors.ReproError` rather
    than leaking a stale handle.
    """

    def __init__(self, signature: Signature):
        self._signature = signature
        self._lock = threading.RLock()
        self._connection: sqlite3.Connection | None = sqlite3.connect(
            ":memory:", check_same_thread=False
        )
        for relation in signature.relations():
            self._create_relation(relation, signature[relation])

    def _create_relation(self, relation: str, arity: int) -> None:
        columns = ", ".join(f"c{i} TEXT NOT NULL" for i in range(1, arity + 1))
        if arity == 0:
            columns = "c0 TEXT NOT NULL DEFAULT ''"
        connection = self._conn()
        connection.execute(
            f"CREATE TABLE {_quote_ident(relation)} ({columns})"
        )
        for i in range(1, arity + 1):
            connection.execute(
                f"CREATE INDEX {_quote_ident(f'ix_{relation}_{i}')} "
                f"ON {_quote_ident(relation)} (c{i})"
            )

    def ensure_atoms(self, atoms: Iterable[Atom]) -> None:
        """Create (empty) tables for relations of *atoms* that the
        loaded signature lacks, so compiled SQL never hits a missing
        table -- rewritings may reference ontology relations with no
        stored facts."""
        with self._lock:
            for atom in atoms:
                if atom.relation not in self._signature.relations():
                    self._signature.declare(atom.relation, atom.arity)
                    self._create_relation(atom.relation, atom.arity)

    def ensure_ucq(
        self, query: UnionOfConjunctiveQueries | ConjunctiveQuery
    ) -> None:
        """:meth:`ensure_atoms` over every body atom of a (U)CQ."""
        ucq = UnionOfConjunctiveQueries.of(query)
        self.ensure_atoms(atom for cq in ucq for atom in cq.body)

    @classmethod
    def from_database(cls, database: Database) -> "SQLiteBackend":
        """Create tables for the database's signature and load its facts."""
        backend = cls(database.signature)
        backend.load(database.facts())
        return backend

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the connection."""
        return self._connection is None

    def _conn(self) -> sqlite3.Connection:
        if self._connection is None:
            raise ReproError("SQLiteBackend is closed")
        return self._connection

    def load(self, facts: Iterable[Atom]) -> int:
        """Bulk-insert facts; returns the number of rows inserted."""
        with obs.span("sql.load") as span, self._lock:
            connection = self._conn()
            count = 0
            for fact in facts:
                placeholders = ", ".join("?" for _ in fact.terms) or "''"
                connection.execute(
                    f"INSERT INTO {_quote_ident(fact.relation)} VALUES ({placeholders})",
                    tuple(_encode(t) for t in fact.terms),
                )
                count += 1
            connection.commit()
            span.set(rows=count)
            obs.count("sql.rows_loaded", count)
        return count

    def delete(self, facts: Iterable[Atom]) -> int:
        """Remove facts; returns the number of rows deleted.

        The incremental-maintenance counterpart of :meth:`load` (see
        :mod:`repro.hybrid.maintain`): relations the backend never saw
        are ignored, and deleting an absent fact is a no-op, so callers
        can hand over a raw delta without pre-filtering.
        """
        with obs.span("sql.delete") as span, self._lock:
            connection = self._conn()
            count = 0
            for fact in facts:
                if fact.relation not in self._signature.relations():
                    continue
                conditions = " AND ".join(
                    f"c{i} = ?" for i in range(1, len(fact.terms) + 1)
                ) or "1 = 1"
                cursor = connection.execute(
                    f"DELETE FROM {_quote_ident(fact.relation)} "
                    f"WHERE {conditions}",
                    tuple(_encode(t) for t in fact.terms),
                )
                count += cursor.rowcount if cursor.rowcount > 0 else 0
            connection.commit()
            span.set(rows=count)
            obs.count("sql.rows_deleted", count)
        return count

    def _run(self, sql: str) -> list:
        """Execute *sql*, tracking statement/row/VM-progress counters.

        The SQLite progress handler fires every ``_PROGRESS_GRANULARITY``
        virtual-machine instructions, so ``sql.vdbe_ticks`` approximates
        the rows/index entries scanned by the query -- it is only
        installed while instrumentation is enabled, keeping the
        disabled path handler-free.
        """
        ticks = 0
        instrumented = obs.enabled()
        with self._lock:
            connection = self._conn()
            if instrumented:

                def on_progress() -> int:
                    nonlocal ticks
                    ticks += 1
                    return 0

                connection.set_progress_handler(
                    on_progress, _PROGRESS_GRANULARITY
                )
            try:
                rows = connection.execute(sql).fetchall()
            finally:
                if instrumented:
                    connection.set_progress_handler(None, 0)
        if instrumented:
            obs.count("sql.statements")
            obs.count("sql.rows_fetched", len(rows))
            obs.count("sql.vdbe_ticks", ticks)
        return rows

    def execute_sql(self, sql: str) -> frozenset[tuple[Term, ...]]:
        """Run raw compiled SQL, decoding rows back into terms."""
        with obs.span("sql.execute", kind="raw") as span:
            rows = self._run(sql)
            span.set(rows=len(rows))
        out: set[tuple[Term, ...]] = set()
        for row in rows:
            decoded = tuple(
                _decode(cell) for cell in row if isinstance(cell, str)
            )
            out.add(decoded)
        return frozenset(out)

    def execute_cq(self, query: ConjunctiveQuery) -> frozenset[tuple[Term, ...]]:
        """Compile and run one CQ; boolean queries return {()} or {}."""
        with obs.span("sql.execute", kind="cq") as span:
            rows = self._run(cq_to_sql(query))
            span.set(rows=len(rows))
        return _decode_rows(rows, query.arity)

    def execute_ucq(
        self, query: UnionOfConjunctiveQueries | ConjunctiveQuery
    ) -> frozenset[tuple[Term, ...]]:
        """Compile and run a UCQ; boolean queries return {()} or {}."""
        ucq = UnionOfConjunctiveQueries.of(query)
        with obs.span(
            "sql.execute", kind="ucq", disjuncts=len(ucq)
        ) as span:
            rows = self._run(ucq_to_sql(ucq))
            span.set(rows=len(rows))
        return _decode_rows(rows, ucq.arity)

    def close(self) -> None:
        """Close the underlying SQLite connection (idempotent)."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _decode_rows(
    rows: Sequence[Sequence[object]], arity: int
) -> frozenset[tuple[Term, ...]]:
    if arity == 0:
        return frozenset([()]) if rows else frozenset()
    out: set[tuple[Term, ...]] = set()
    for row in rows:
        out.add(tuple(_decode(str(cell)) for cell in row))
    return frozenset(out)
