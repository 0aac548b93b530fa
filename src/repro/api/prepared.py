"""Prepared (compile-once, execute-many) queries.

A :class:`PreparedQuery` is the session-API analogue of a prepared
statement in a classical DBMS: the conjunctive query is canonicalized
and bound to a session at construction, the expensive compilation
(rewriting w.r.t. the session's ontology, to the UCQ or the
nonrecursive-Datalog target) happens at most once per session -- the
session's handles are its compile memo, backed by the persistent cache
when one is configured -- and the compiled artifacts (the UCQ or rule
program, the SQL text) are reusable against any database with the
right signature.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, cast

from repro import obs
from repro.data.database import Database
from repro.data.sql import datalog_to_sql, ucq_to_sql
from repro.lang.errors import RewritingBudgetExceeded
from repro.lang.queries import UnionOfConjunctiveQueries
from repro.lang.terms import Term
from repro.rewriting.datalog_target import DatalogRewriting
from repro.rewriting.engine import Compiled, FORewritingEngine
from repro.rewriting.rewriter import RewritingResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis import SeparabilityReport, TerminationCertificate
    from repro.api.session import Session


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
        size: disjuncts of the evaluated UCQ, or rules of the Datalog
            program.
        certificate, partition: the ontology's termination-lattice
            certificate and separability partition, whenever a hybrid
            regime analysed the session (None otherwise).
        rewriting, ucq, database, state: what ``_execute`` evaluates --
            the compiled artifact (None for a chase plan), the UCQ
            evaluated (None for Datalog), the passed database and the
            hybrid state whose core serves the plan.
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

    def require_exact(self) -> None:
        """Raise unless :attr:`exact`: the one exactness check.

        Raises :class:`~repro.lang.errors.RewritingBudgetExceeded`,
        carrying the rewriting's counts, when the budget cut it short.
        """
        rewriting = self.rewriting
        if rewriting is not None and not rewriting.complete:
            raise RewritingBudgetExceeded(
                "rewriting incomplete within budget; pass "
                "require_complete=False for a sound approximation",
                partial_cqs=rewriting.generated,
                depth_reached=rewriting.depth_reached,
            )

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
    permutation, under one requested target, return the *same* object.
    The session's handles are its one compile memo: the handles of one
    canonical query, whatever target each requested, share one artifact
    dict and one lock, and each artifact -- the UCQ rewriting, the
    Datalog program, a SPLIT plan's residual rewriting -- is compiled
    once, by the first handle that needs it, while it holds that lock.
    Concurrent first uses therefore wait for the one compilation; later
    uses read the handle's own dict without a lock.  Whether answers are
    exact is the plan's to say (:attr:`AnswerPlan.exact`): a hybrid plan
    may never compile the rewriting over the full ontology.
    """

    __slots__ = (
        "_session",
        "_query",
        "_digest",
        "_target",
        "_selected",
        "_shared",
        "_compiled",
        "_lock",
        "_hits",
        "_misses",
        "_sql",
    )

    def __init__(
        self,
        session: "Session",
        query: UnionOfConjunctiveQueries,
        digest: str,
        target: str,
        sibling: "PreparedQuery | None" = None,
    ) -> None:
        self._session = session
        self._query = query
        self._digest = digest
        self._target = target
        self._selected: str | None = None if target == "auto" else target
        # The artifacts of every handle of this query, keyed by kind,
        # and the lock each compilation runs under.
        if sibling is None:
            self._shared: dict[str, Compiled] = {}
            self._lock = threading.Lock()
        else:
            self._shared = sibling._shared
            self._lock = sibling._lock
        # The artifacts this handle has served, read without the lock;
        # it tells a warm read from a first take of a sibling's artifact.
        self._compiled: dict[str, Compiled] = {}
        self._hits = 0
        self._misses = 0
        self._sql: str | None = None

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
        choice (see :meth:`FORewritingEngine.resolve_target`), resolved
        once per handle; resolving never compiles anything.
        """
        selected = self._selected
        if selected is None:
            with self._lock:
                if self._selected is None:
                    self._selected = self._session.engine.resolve_target(
                        self._query, "auto"
                    )
                selected = self._selected
        return selected

    # ----------------------------------------------------------------- #
    # Compiled artifacts                                                  #
    # ----------------------------------------------------------------- #

    def _artifact(
        self, kind: str, engine: FORewritingEngine | None = None
    ) -> Compiled:
        """The *kind* artifact, compiled on first use by any sibling.

        *kind* is ``ucq`` or ``datalog`` (compiled by the session's
        engine) or ``residual`` (the UCQ rewriting over a SPLIT's
        residual rules, compiled by *engine*).  The compilation runs
        under the lock the query's handles share, so it runs once: a
        handle that finds the artifact already compiled by a sibling
        counts a hit, a handle that compiles counts a miss.
        """
        artifact = self._compiled.get(kind)
        if artifact is not None:
            return artifact
        with self._lock:
            artifact = self._compiled.get(kind)
            if artifact is None:
                artifact = self._shared.get(kind)
                if artifact is None:
                    self._misses += 1
                    obs.count("engine.cache_misses")
                    compiler = engine or self._session.engine
                    artifact = compiler.compile(
                        self._query, "ucq" if kind == "residual" else kind
                    )
                    self._shared[kind] = artifact
                else:
                    self._hits += 1
                    obs.count("engine.cache_hits")
                self._compiled[kind] = artifact
        return artifact

    @property
    def result(self) -> RewritingResult:
        """The full rewriting result (compiles on first access)."""
        return cast(RewritingResult, self._artifact("ucq"))

    @property
    def datalog(self) -> DatalogRewriting:
        """The nonrecursive-Datalog rewriting (compiles on first access).

        Available regardless of :attr:`target` -- accessing it on a
        ucq-target handle simply compiles (and caches) the other
        artifact kind.
        """
        return cast(DatalogRewriting, self._artifact("datalog"))

    @property
    def rewriting(self) -> RewritingResult | DatalogRewriting:
        """The artifact of :attr:`target_selected`: :attr:`result` or
        :attr:`datalog` (compiles on first access)."""
        return self._artifact(self.target_selected)

    @property
    def ucq(self) -> UnionOfConjunctiveQueries:
        """The compiled UCQ rewriting."""
        return self.result.ucq

    @property
    def sql(self) -> str:
        """The SQL text the rewriting compiles to (cached).

        For the Datalog target this is the ``WITH``-CTE form (one CTE
        per intermediate predicate); for the UCQ target the classical
        ``UNION`` of per-disjunct ``SELECT`` blocks.  It depends on the
        ontology alone, so a mutation of the session's data leaves it
        as it is.
        """
        sql = self._sql
        if sql is None:
            # Deterministic text: a racing thread writes an equal string.
            if self.target_selected == "datalog":
                sql = datalog_to_sql(self.datalog)
            else:
                sql = ucq_to_sql(self.ucq)
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
            summary.update(disjuncts=rewriting.size)
        return summary

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
        ``require_complete=True`` (default) a plan that is not exact
        raises (:meth:`AnswerPlan.require_exact`).
        """
        return self.execute(
            self.plan(database, backend=backend),
            require_complete=require_complete,
        )

    def execute(
        self, plan: AnswerPlan, *, require_complete: bool = True
    ) -> frozenset[tuple[Term, ...]]:
        """Evaluate *plan*, which :meth:`plan` returned for this handle.

        A caller that reports the plan beside its answers plans once and
        evaluates that plan, so the report describes the evaluation that
        ran even when a mutation lands in between.
        """
        return self._session._execute(self, plan, require_complete)

    def __repr__(self) -> str:
        state = "compiled" if self._compiled else "pending"
        return f"PreparedQuery({str(self._query)!r}, {state})"
