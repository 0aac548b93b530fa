"""Prepared (compile-once, execute-many) queries.

A :class:`PreparedQuery` is the session-API analogue of a prepared
statement in a classical DBMS: the conjunctive query is canonicalized
and bound to a session at construction, the expensive compilation
(rewriting w.r.t. the session's ontology, to the UCQ or the
nonrecursive-Datalog target) happens at most once -- served from the
session's in-memory or persistent cache whenever possible -- and the
compiled artifacts (the UCQ or rule program, the SQL text) are reusable
against any database with the right signature.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.data.database import Database
from repro.data.sql import datalog_to_sql, ucq_to_sql
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.terms import Term
from repro.rewriting.datalog_target import DatalogRewriting
from repro.rewriting.rewriter import RewritingResult
from repro.rewriting.store import query_digest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis import SeparabilityReport, TerminationCertificate
    from repro.api.session import Session
    from repro.checkers.pruning import PruneResult


@dataclass(frozen=True, eq=False, repr=False)
class AnswerPlan:
    """What one answer evaluates, where, and whether it is exact.

    The session's one planning step builds it, ``Session._execute``
    evaluates it, and :meth:`PreparedQuery.plan` returns it unevaluated.

    Attributes:
        kind: ``"rewriting"`` (a complete rewriting over the data),
            ``"chase"`` (the query itself over the materialized chase),
            ``"split"`` (the residual rewriting over the materialized
            core) or ``"approximation"`` (a rewriting the budget cut
            short: sound answers that may be incomplete).
        source: the instance evaluated -- ``"database"`` (passed
            explicitly), ``"abox"`` or ``"core"``.
        backend: ``"memory"``, or ``"sql"`` for the instance's mirror.
        target: ``"ucq"`` or ``"datalog"``.
        size: disjuncts of the evaluated UCQ before pruning, or rules
            of the Datalog program.
        certificate, partition: the ontology's termination-lattice
            certificate and separability partition, whenever a hybrid
            regime analysed the session (None otherwise).
        rewriting, ucq, database, state: what ``_execute`` evaluates --
            the compiled artifact (None for a chase plan), the UCQ
            after pruning (None for Datalog, or when pruning left no
            disjunct), the passed database and the hybrid state whose
            core serves the plan.
    """

    kind: str
    source: str
    backend: str
    target: str
    size: int
    certificate: "TerminationCertificate | None"
    partition: "SeparabilityReport | None"
    rewriting: RewritingResult | DatalogRewriting | None
    ucq: UnionOfConjunctiveQueries | None
    database: Database | None
    state: Any

    @property
    def exact(self) -> bool:
        """True iff the answers are exactly the certain answers."""
        return self.kind != "approximation"

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "exact": self.exact,
            "source": self.source,
            "backend": self.backend,
            "target": self.target,
            "size": self.size,
        }

    def __repr__(self) -> str:
        return f"AnswerPlan({self.to_dict()})"


class PreparedQuery:
    """A query bound to a :class:`~repro.api.Session`, compiled lazily.

    Obtained from :meth:`Session.prepare`; two prepares of queries that
    are equal up to variable renaming / atom reordering / disjunct
    permutation return the *same* object.  Compilation is deferred to
    the first use of :attr:`result` / :attr:`ucq` / :attr:`sql` /
    :meth:`plan` / :meth:`answer` and is thread-safe.  Whether answers
    are exact is the plan's to say (:attr:`AnswerPlan.exact`): a hybrid
    plan may never compile the rewriting over the full ontology.
    """

    __slots__ = (
        "_session",
        "_query",
        "_digest",
        "_target",
        "_result",
        "_datalog",
        "_pruned",
        "_sql",
        "_lock",
    )

    def __init__(
        self,
        session: "Session",
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        target: str | None = None,
    ) -> None:
        from repro.rewriting.engine import TARGETS

        self._session = session
        self._query = UnionOfConjunctiveQueries.of(query)
        self._digest = query_digest(self._query)
        if target is None:
            target = session.engine.target
        elif target not in TARGETS:
            raise ValueError(
                f"unknown rewriting target {target!r}; "
                f"expected one of {TARGETS}"
            )
        self._target = target
        self._result: RewritingResult | None = None
        self._datalog: DatalogRewriting | None = None
        self._pruned: "PruneResult | None" = None
        self._sql: str | None = None
        self._lock = threading.Lock()

    @property
    def query(self) -> UnionOfConjunctiveQueries:
        """The input query (as a UCQ)."""
        return self._query

    @property
    def digest(self) -> str:
        """The canonical content digest keying this query in caches."""
        return self._digest

    @property
    def session(self) -> "Session":
        """The session this query is bound to."""
        return self._session

    @property
    def target(self) -> str:
        """The requested rewriting target (``ucq``/``datalog``/``auto``)."""
        return self._target

    @property
    def target_selected(self) -> str:
        """The concrete target compilation uses (``ucq`` or ``datalog``).

        For ``target="auto"`` this is the estimator-driven per-query
        choice (see :meth:`FORewritingEngine.resolve_target`); cheap to
        call -- resolving never compiles anything.
        """
        return self._session.engine.resolve_target(self._query, self._target)

    # ----------------------------------------------------------------- #
    # Compiled artifacts                                                  #
    # ----------------------------------------------------------------- #

    @property
    def result(self) -> RewritingResult:
        """The full rewriting result (compiles on first access)."""
        result = self._result
        if result is None:
            # The engine single-flights concurrent compilations of the
            # same canonical query, so racing threads here do no
            # duplicate work.
            result = self._session.engine._rewrite(self._query)
            with self._lock:
                if self._result is None:
                    self._result = result
                result = self._result
        return result

    @property
    def datalog(self) -> DatalogRewriting:
        """The nonrecursive-Datalog rewriting (compiles on first access).

        Available regardless of :attr:`target` -- accessing it on a
        ucq-target handle simply compiles (and caches) the other
        artifact kind.
        """
        rewriting = self._datalog
        if rewriting is None:
            rewriting = self._session.engine._rewrite_datalog(self._query)
            with self._lock:
                if self._datalog is None:
                    self._datalog = rewriting
                rewriting = self._datalog
        return rewriting

    @property
    def ucq(self) -> UnionOfConjunctiveQueries:
        """The compiled UCQ rewriting."""
        return self.result.ucq

    @property
    def pruned(self) -> "PruneResult | None":
        """The rewriting after the session's static pruning (cached).

        None when the session's options leave ``prune_empty`` off (or
        the session has neither mappings nor data to prune against),
        and always None for the Datalog target -- its intermediate
        predicates are populated by the program itself, so per-disjunct
        static pruning does not apply; the unpruned artifact is then
        what every backend evaluates.
        """
        if self.target_selected == "datalog":
            return None
        supported = self._session.pruning_relations()
        if supported is None:
            return None
        with self._lock:
            pruned = self._pruned
        if pruned is None:
            from repro.checkers.pruning import prune_statically_empty

            pruned = prune_statically_empty(self.ucq, supported)
            with self._lock:
                if self._pruned is None:
                    self._pruned = pruned
                pruned = self._pruned
        return pruned

    @property
    def sql(self) -> str:
        """The SQL text the (pruned) rewriting compiles to (cached).

        For the Datalog target this is the ``WITH``-CTE form (one CTE
        per intermediate predicate); for the UCQ target the classical
        ``UNION`` of per-disjunct ``SELECT`` blocks.
        """
        with self._lock:
            sql = self._sql
        if sql is None:
            if self.target_selected == "datalog":
                sql = datalog_to_sql(self.datalog)
                with self._lock:
                    if self._sql is None:
                        self._sql = sql
                return self._sql
            pruned = self.pruned
            if pruned is None:
                sql = ucq_to_sql(self.ucq)
            elif pruned.ucq is None:
                # Every disjunct is statically empty: an arity-correct
                # SELECT that yields no rows.
                columns = ", ".join(
                    f"NULL AS a{i}" for i in range(self._query.arity)
                ) or "1 AS a0"
                sql = f"SELECT {columns} WHERE 1 = 0"
            else:
                sql = ucq_to_sql(pruned.ucq)
            with self._lock:
                if self._sql is None:
                    self._sql = sql
        return sql

    def plan(
        self, database: Database | None = None, *, backend: str = "memory"
    ) -> AnswerPlan:
        """The plan :meth:`answer` runs for these arguments.

        Compiles what the plan evaluates and evaluates nothing: a hybrid
        session's first plan builds its decision (and core), as its
        first answer would.
        """
        return self._session._plan(self, database, backend)

    def explain(self) -> dict[str, Any]:
        """A plain-dict summary of the plan, for logs and CLIs.

        ``plan`` names the certificate that admitted the plan: the
        SWR/WR class of the query-relevant fragment, ``completed within
        budget``, the termination-lattice level or the partition sizes.
        The compilation statistics describe the artifact the plan
        evaluates, so a chase plan has none.
        """
        plan = self.plan()
        summary: dict[str, Any] = {
            "query": str(self._query),
            "digest": self._digest,
            "target": self._target,
            "target_selected": plan.target,
            "complete": plan.exact,
            "plan": {
                **plan.to_dict(),
                "certificate": self._session._certificate(self, plan),
            },
        }
        rewriting = plan.rewriting
        if rewriting is None:
            return summary
        summary.update(
            depth_reached=rewriting.depth_reached,
            generated=rewriting.generated,
            max_body_atoms=rewriting.max_body_atoms,
        )
        if isinstance(rewriting, DatalogRewriting):
            summary.update(
                rules=rewriting.size,
                aux_predicates=len(rewriting.predicates),
                fallback_disjuncts=rewriting.fallback_disjuncts,
            )
        else:
            kept = len(plan.ucq) if plan.ucq is not None else 0
            summary.update(
                disjuncts=rewriting.size,
                pruned_disjuncts=rewriting.size - kept,
                effective_disjuncts=kept,
            )
        return summary

    def _invalidate_data_caches(self) -> None:
        """Drop artifacts derived from the session's *data*.

        Called by :meth:`Session.insert` / :meth:`Session.delete`: the
        rewriting itself depends only on the ontology and survives, but
        the static pruning (and the SQL compiled from the pruned UCQ)
        was computed against the old ABox vocabulary — a disjunct that
        was statically empty may now match.
        """
        with self._lock:
            self._pruned = None
            self._sql = None

    # ----------------------------------------------------------------- #
    # Execution                                                           #
    # ----------------------------------------------------------------- #

    def answer(
        self,
        database: Database | None = None,
        *,
        backend: str = "memory",
        require_complete: bool = True,
    ) -> frozenset[tuple[Term, ...]]:
        """Certain answers over *database* (default: the session's data).

        ``backend="memory"`` evaluates the UCQ in-process;
        ``backend="sql"`` executes the compiled SQL on the session's
        SQLite backend (only for the session's own data).  With
        ``require_complete=True`` (default) an incomplete rewriting
        raises :class:`~repro.lang.errors.RewritingBudgetExceeded`.
        """
        return self._session._execute(
            self, self.plan(database, backend=backend), require_complete
        )

    def __repr__(self) -> str:
        compiled = self._result is not None or self._datalog is not None
        state = "compiled" if compiled else "pending"
        return f"PreparedQuery({str(self._query)!r}, {state})"
