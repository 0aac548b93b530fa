"""The session layer: compile-once / serve-many query answering.

A :class:`Session` owns everything that is fixed for the lifetime of an
ontology -- the classification, the rewriting engine with its in-memory
cache, the optional persistent rewriting cache, the virtual ABox and
its SQLite mirror -- and hands out
:class:`~repro.api.prepared.PreparedQuery` objects whose compilation is
shared across all of them.  It is the public surface the paper's OBDA
architecture maps onto::

    from repro.api import Session

    with Session(rules, data, cache_dir="~/.cache/repro") as session:
        prepared = session.prepare(query)      # compiled at most once
        prepared.answer()                      # in-memory evaluation
        prepared.answer(backend="sql")         # compiled SQL on SQLite
        prepared.sql                           # the SQL text itself

    # batch: independent queries fan out over a worker pool
    for item in session.answer_many(queries, max_workers=4):
        print(item.index, len(item.answers))

It is the library's one answering surface and its one planner: the
rewriting engine only compiles; one planning step, ``_plan``, decides
what each answer evaluates, where, and whether it is exact (the
:class:`~repro.api.prepared.AnswerPlan` that :meth:`PreparedQuery.plan`
reports); and every evaluation -- in memory, on SQL, over a hybrid
materialized core -- runs through one session method, ``_execute``, on
one backend type, :class:`~repro.data.sql.SQLiteBackend`.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence, cast

from repro import obs
from repro.api.cache import CacheStats, EngineTier, RewritingCache
from repro.api.options import EngineOptions
from repro.api.prepared import AnswerPlan, PreparedQuery
from repro.chase.certain import certain_answers_via_chase
from repro.core.classify import ClassificationReport, classify
from repro.data.database import Database
from repro.data.evaluation import evaluate_ucq
from repro.data.sql import SQLiteBackend
from repro.lang.atoms import Atom
from repro.lang.errors import ReproError
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.signature import Signature
from repro.lang.terms import Null, Term
from repro.lang.tgd import TGD
from repro.obda.mappings import MappingAssertion, apply_mappings
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.engine import FORewritingEngine
from repro.rewriting.store import budget_digest, ontology_digest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis import AnalysisReport
    from repro.checkers import CheckConfig
    from repro.hybrid.cost import HybridDecision
    from repro.hybrid.maintain import MaintenanceResult, MaterializedCore
    from repro.lint.diagnostics import LintReport
    from repro.rewriting.datalog_target import DatalogRewriting
    from repro.rewriting.rewriter import RewritingResult

_BACKENDS = ("memory", "sql")

#: Chase step budget for building a hybrid materialized core: the
#: ceiling of every chase or split plan's materialization.
HYBRID_CHASE_MAX_STEPS = 200_000


class _HybridState:
    """Everything the hybrid answering regime keeps per session.

    ``core`` is None for a REWRITE decision (nothing materialized);
    ``residual_engine`` is set only for SPLIT; ``mirror`` is the lazy
    SQLite mirror of the core's instance, kept current by applying each
    maintenance operation's exact delta.  A core whose maintenance
    raised is dropped whole, mirror included (see ``Session._mutate``).
    """

    __slots__ = ("decision", "core", "residual_engine", "mirror")

    def __init__(
        self,
        decision: "HybridDecision",
        core: "MaterializedCore | None",
        residual_engine: FORewritingEngine | None,
    ) -> None:
        self.decision = decision
        self.core = core
        self.residual_engine = residual_engine
        self.mirror: SQLiteBackend | None = None


class Session:
    """Ontology + optional mappings/data, with all compilation shared.

    Args:
        ontology: the TGD set (intensional layer).
        data: the source database (extensional layer); optional --
            a data-less session can still prepare queries, emit SQL
            and answer over explicitly passed databases.
        mappings: GAV assertions source -> ontology vocabulary; when
            None the source is taken to be stated directly in the
            ontology's vocabulary (identity mapping).
        cache_dir: directory for the persistent rewriting cache; when
            None only the in-memory cache is used.  The cache file is
            keyed by content digests, so any number of sessions (and
            processes) may share one directory -- see
            :mod:`repro.api.cache` for the invalidation rules.
        options: every engine-tuning knob -- budget, rewriting target,
            hybrid regime -- in one frozen :class:`~repro.api.EngineOptions`
            value (default: ``EngineOptions()``).

    ``backend="sql"`` answers run on a
    :class:`~repro.data.sql.SQLiteBackend` *mirror*: a SQLite copy of
    the instance being queried (the virtual ABox, or a hybrid core's
    instance), built on first use, kept in step with
    :meth:`insert`/:meth:`delete`, and released by :meth:`close`.
    """

    def __init__(
        self,
        ontology: Sequence[TGD],
        data: Database | None = None,
        *,
        mappings: Sequence[MappingAssertion] | None = None,
        cache_dir: str | Path | None = None,
        options: EngineOptions | None = None,
    ) -> None:
        self._ontology = tuple(ontology)
        self._source = data
        self._mappings = tuple(mappings) if mappings is not None else None
        self._options = options if options is not None else EngineOptions()
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._cache = (
            RewritingCache(self._cache_dir)
            if self._cache_dir is not None
            else None
        )
        self._engine = self._new_engine(
            self._ontology, target=self._options.target
        )
        self._lock = threading.RLock()
        self._prepared: dict[str, PreparedQuery] = {}
        self._abox: Database | None = None
        self._sql_backend: SQLiteBackend | None = None
        self._classification: ClassificationReport | None = None
        self._analysis: "AnalysisReport | None" = None
        self._hybrid: "_HybridState | None" = None
        self._hybrid_ready = False
        self._closed = False

    def _new_engine(
        self, rules: tuple[TGD, ...], **options: Any
    ) -> FORewritingEngine:
        """A rewriting engine over *rules*, on the session's budget and
        persistent cache.

        Its cache rows are keyed by the digest of *rules* -- the
        residual of a split as much as the whole ontology -- and owned
        by the session's ontology, so they are evicted with it.
        """
        tier = (
            EngineTier(
                self._cache, rules, self._options.budget, self.ontology_digest
            )
            if self._cache is not None
            else None
        )
        return FORewritingEngine(
            rules, budget=self._options.budget, persistent=tier, **options
        )

    # ----------------------------------------------------------------- #
    # Layers                                                              #
    # ----------------------------------------------------------------- #

    @property
    def ontology(self) -> tuple[TGD, ...]:
        """The intensional layer (TGDs)."""
        return self._ontology

    @property
    def ontology_digest(self) -> str:
        """Content digest of the ontology (the persistent-cache key part)."""
        return ontology_digest(self._ontology)

    @property
    def options(self) -> EngineOptions:
        """The frozen engine-options bundle this session was opened with."""
        return self._options

    @property
    def budget(self) -> RewritingBudget:
        """The rewriting budget every compilation runs under."""
        return self._options.budget

    @property
    def engine(self) -> FORewritingEngine:
        """The underlying rewriting engine (compilation tier)."""
        return self._engine

    @property
    def cache(self) -> RewritingCache | None:
        """The persistent rewriting cache, or None when not configured."""
        return self._cache

    @property
    def cache_dir(self) -> Path | None:
        """The persistent cache directory, or None."""
        return self._cache_dir

    @property
    def data(self) -> Database | None:
        """The source database this session was opened over (if any)."""
        return self._source

    def classification(self) -> ClassificationReport:
        """Where the ontology sits among the implemented classes."""
        with self._lock:
            if self._classification is None:
                self._classification = classify(self._ontology)
            return self._classification

    def check(
        self,
        queries: Iterable[
            ConjunctiveQuery | UnionOfConjunctiveQueries | str
        ] | None = None,
        config: "CheckConfig | None" = None,
    ) -> "LintReport":
        """Static cross-artifact analysis of this session's project.

        Runs the ``repro check`` passes (:mod:`repro.checkers`) over
        the session's ontology, mappings and data, with *queries* as
        the workload (default: every query prepared so far).  Returns
        the :class:`~repro.lint.diagnostics.LintReport`; render it with
        :func:`repro.lint.render`, which takes the ``repro-check``
        driver and rule names from the report.
        """
        from repro.checkers import CheckConfig, Project, check_project

        if config is None:
            config = CheckConfig(budget=self._options.budget)
        if queries is None:
            workload = [p.query for p in self.prepared_queries()]
        else:
            workload = [
                UnionOfConjunctiveQueries.of(self._coerce(query))
                for query in queries
            ]
        # The checkers take a *set of CQs* (a workload), so UCQs are
        # flattened into their disjuncts.
        cqs = tuple(cq for ucq in workload for cq in ucq)
        project = Project(
            rules=self._ontology,
            queries=cqs,
            mappings=self._mappings,
            data=self._source,
            path="<session>",
        )
        return check_project(project, config)

    def analyze(self) -> "AnalysisReport":
        """Constraint-interaction analysis of the session's ontology.

        Bundles the chase-termination lattice certificate (weak ⊊
        joint ⊊ super-weak acyclicity, with witness cycles) and the
        separability partition of :mod:`repro.analysis`.  The workload
        for the partition's cost estimates is every query prepared so
        far.  Memoized: the ontology is immutable, so the report is
        computed once per session.
        """
        from repro.analysis import analyze

        with self._lock:
            if self._analysis is None:
                with obs.span(
                    "session.analyze", rules=len(self._ontology)
                ):
                    workload = tuple(
                        cq
                        for p in self.prepared_queries()
                        for cq in p.query
                    )
                    self._analysis = analyze(
                        self._ontology,
                        queries=workload,
                        budget=self._options.budget,
                    )
            return self._analysis

    def abox(self) -> Database:
        """The virtual ABox: source data seen through the mappings."""
        with self._lock:
            if self._abox is None:
                if self._source is None:
                    raise ReproError(
                        "session has no data; pass a database to "
                        "answer()/answer_many() or open the session "
                        "with one"
                    )
                if self._mappings is None:
                    self._abox = self._source
                else:
                    with obs.span(
                        "obda.materialize_abox", mappings=len(self._mappings)
                    ) as span:
                        self._abox = apply_mappings(
                            self._mappings, self._source
                        )
                        span.set(facts=len(self._abox))
            return self._abox

    def sql_backend(self) -> SQLiteBackend:
        """The lazily created SQLite mirror of the virtual ABox.

        Shared -- and safe to share -- across batch worker threads.
        Raises :class:`~repro.lang.errors.ReproError` once the session
        is closed.
        """
        with self._lock:
            if self._sql_backend is None:
                self._sql_backend = self._load_mirror(self.abox())
            return self._sql_backend

    def _load_mirror(self, instance: Database) -> SQLiteBackend:
        """A new SQLite mirror of *instance*; the caller holds the lock.

        The schema covers the whole ontology signature: a rewriting may
        mention relations with no stored facts.
        """
        if self._closed:
            raise ReproError("session is closed")
        with obs.span("obda.sql_backend_init") as init_span:
            signature = Signature(dict(instance.signature))
            for rule in self._ontology:
                signature.observe_tgd(rule)
            mirror = SQLiteBackend(signature)
            mirror.load(instance.facts())
            init_span.set(relations=len(signature), facts=len(instance))
        return mirror

    def _mirror(self, state: "_HybridState | None") -> SQLiteBackend:
        """The mirror of *state*'s core instance, or of the virtual ABox."""
        if state is None:
            return self.sql_backend()
        with self._lock:
            if state.mirror is None:
                assert state.core is not None
                state.mirror = self._load_mirror(state.core.instance)
            return state.mirror

    # ----------------------------------------------------------------- #
    # Compilation                                                         #
    # ----------------------------------------------------------------- #

    def prepare(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries | str,
        *,
        target: str | None = None,
    ) -> PreparedQuery:
        """The session's prepared handle for *query* (memoized).

        Accepts a parsed (U)CQ or query text.  Queries equal up to
        renaming / reordering share one handle, hence one compilation.
        *target* overrides the session's rewriting target for this
        query; handles are memoized per (query, requested target), so
        preparing the same query under two targets yields two handles
        (whose compilations still share the engine's per-target
        caches).
        """
        prepared = PreparedQuery(self, self._coerce(query), target=target)
        memo_key = f"{prepared.digest}/{prepared.target}"
        with self._lock:
            existing = self._prepared.get(memo_key)
            if existing is not None:
                return existing
            self._prepared[memo_key] = prepared
            return prepared

    def prepared_queries(self) -> tuple[PreparedQuery, ...]:
        """Every handle this session has prepared so far."""
        with self._lock:
            return tuple(self._prepared.values())

    @staticmethod
    def _coerce(
        query: ConjunctiveQuery | UnionOfConjunctiveQueries | str,
    ) -> ConjunctiveQuery | UnionOfConjunctiveQueries:
        if isinstance(query, str):
            from repro.lang.parser import parse_query

            return parse_query(query)
        return query

    # ----------------------------------------------------------------- #
    # Answering                                                           #
    # ----------------------------------------------------------------- #

    def answer(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries | str,
        database: Database | None = None,
        *,
        backend: str = "memory",
        require_complete: bool = True,
        target: str | None = None,
    ) -> frozenset[tuple[Term, ...]]:
        """Certain answers of *query* (prepared implicitly).

        Shorthand for ``session.prepare(query, target=target).answer(...)``.
        """
        return self.prepare(query, target=target).answer(
            database, backend=backend, require_complete=require_complete
        )

    def answer_chase(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries | str,
        max_steps: int = 100_000,
    ) -> frozenset[tuple[Term, ...]]:
        """Oracle: certain answers via the restricted chase.

        Exponentially more expensive in the data; used to validate the
        rewriting pipeline.
        """
        with obs.span("obda.chase_oracle") as span:
            result = certain_answers_via_chase(
                self._coerce(query),
                self._ontology,
                self.abox(),
                max_steps=max_steps,
            )
            span.set(
                answers=len(result.answers), chase_steps=result.chase_steps
            )
        return result.answers

    def answer_many(
        self,
        queries: Iterable[ConjunctiveQuery | UnionOfConjunctiveQueries | str],
        database: Database | None = None,
        *,
        max_workers: int | None = None,
        mode: str = "thread",
        backend: str = "memory",
        require_complete: bool = True,
        ordered: bool = False,
        target: str | None = None,
    ) -> "Iterator":
        """Answer many independent queries on a worker pool, streaming.

        Yields one :class:`~repro.api.pool.BatchResult` per query *as it
        completes* (set ``ordered=True`` to stream in input order
        instead).  ``mode="thread"`` shares this session's engine and
        caches across a thread pool -- ideal when most compilations hit
        a cache; ``mode="process"`` fans out over a process pool for
        real multi-core speedup on cold compilations (each worker
        builds its own session, sharing only the persistent cache
        file).  Answers are identical to the sequential path either
        way.
        """
        from repro.api.pool import run_batch

        return run_batch(
            self,
            list(queries),
            database=database,
            max_workers=max_workers,
            mode=mode,
            backend=backend,
            require_complete=require_complete,
            ordered=ordered,
            target=target,
        )

    def answer_all(
        self,
        queries: Iterable[ConjunctiveQuery | UnionOfConjunctiveQueries | str],
        database: Database | None = None,
        **kwargs: Any,
    ) -> list:
        """:meth:`answer_many`, collected into an input-ordered list."""
        kwargs["ordered"] = True
        return list(self.answer_many(queries, database, **kwargs))

    def sql_for(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries | str,
        *,
        target: str | None = None,
    ) -> str:
        """The SQL text the rewriting of *query* compiles to."""
        return self.prepare(query, target=target).sql

    # ----------------------------------------------------------------- #
    # Hybrid answering + ABox mutation                                    #
    # ----------------------------------------------------------------- #

    def hybrid_decision(self) -> "HybridDecision | None":
        """The cost model's REWRITE/SPLIT/MATERIALIZE decision.

        None when the session runs with ``options.hybrid="off"``.
        Building the decision needs the session's data (relation
        cardinalities) and analysis; it is memoized together with the
        materialized core it may imply.
        """
        state = self._hybrid_state()
        return state.decision if state is not None else None

    def _hybrid_state(self) -> "_HybridState | None":
        if self._options.hybrid == "off":
            return None
        with self._lock:
            if self._hybrid_ready:
                return self._hybrid
            from repro.hybrid.cost import HybridChoice, decide
            from repro.hybrid.store import load_or_build

            abox = self.abox()
            analysis = self.analyze()
            partition = analysis.separability
            decision = decide(
                partition=partition,
                certificate=analysis.certificate,
                data_size=len(abox),
                relation_sizes={
                    name: abox.count(name) for name in abox.relations()
                },
                workload_weight=max(1, len(self._prepared)),
                mode=self._options.hybrid,
            )
            if decision.choice is HybridChoice.REWRITE:
                state = _HybridState(decision, None, None)
            else:
                rules = (
                    self._ontology
                    if decision.choice is HybridChoice.MATERIALIZE
                    else partition.core
                )
                core = load_or_build(
                    self._cache,
                    self.ontology_digest,
                    rules,
                    abox,
                    max_steps=HYBRID_CHASE_MAX_STEPS,
                )
                residual_engine = None
                if decision.choice is HybridChoice.SPLIT:
                    residual_engine = self._new_engine(
                        partition.residual, target="ucq"
                    )
                state = _HybridState(decision, core, residual_engine)
            self._hybrid = state
            self._hybrid_ready = True
            return state

    def insert(
        self, facts: "Iterable[Any] | str"
    ) -> "MaintenanceResult | None":
        """Add ABox facts; incrementally maintain derived state.

        Accepts parsed atoms or database text (``"a(c). r(c, d)."``).
        The virtual ABox, the SQL backend and — when a hybrid core is
        materialized — the chase closure are all brought up to date;
        the core runs a semi-naive delta chase, whatever the size of
        the delta.  Returns the core's
        :class:`MaintenanceResult`, or None when no core is
        materialized.  When maintaining the core raises, the ABox change
        stands, the core is dropped, and the next answer re-plans from
        the current ABox.
        """
        return self._mutate(facts, delete=False)

    def delete(
        self, facts: "Iterable[Any] | str"
    ) -> "MaintenanceResult | None":
        """Remove ABox facts; incrementally maintain derived state.

        The materialized core (when present) retracts consequences via
        DRed-style overestimate-then-rederive instead of re-chasing.
        Returns the core's :class:`MaintenanceResult`, or None when no
        core is materialized.  A failure drops the core, as for
        :meth:`insert`.
        """
        return self._mutate(facts, delete=True)

    def _mutate(
        self, facts: "Iterable[Any] | str", *, delete: bool
    ) -> "MaintenanceResult | None":
        if isinstance(facts, str):
            from repro.lang.parser import parse_database

            atoms = tuple(parse_database(facts))
        else:
            atoms = tuple(facts)
        with self._lock, obs.span(
            "session.mutate",
            op="delete" if delete else "insert",
            facts=len(atoms),
        ):
            abox = self.abox()
            if abox is self._source:
                # Mutations must never reach the caller's database
                # object; fork the virtual ABox on first write.
                abox = self._abox = self._source.copy()
            if delete:
                changed = [fact for fact in atoms if abox.discard(fact)]
                obs.count("session.deletes", len(changed))
            else:
                changed = [fact for fact in atoms if abox.add(fact)]
                obs.count("session.inserts", len(changed))
            added, removed = ((), changed) if delete else (changed, ())
            self._apply_delta(self._sql_backend, added, removed)
            result: "MaintenanceResult | None" = None
            state = self._hybrid if self._hybrid_ready else None
            if state is not None and state.core is not None:
                try:
                    result = (
                        state.core.apply_delete(changed)
                        if delete
                        else state.core.apply_insert(changed)
                    )
                    self._apply_delta(
                        state.mirror, result.added, result.removed
                    )
                except BaseException:
                    # The core (or its mirror) is part-way maintained:
                    # drop both, so the next answer re-plans from the
                    # current ABox.
                    if state.mirror is not None:
                        state.mirror.close()
                    self._hybrid = None
                    self._hybrid_ready = False
                    raise
            return result

    @staticmethod
    def _apply_delta(
        mirror: SQLiteBackend | None,
        added: Sequence[Atom],
        removed: Sequence[Atom],
    ) -> None:
        """Apply an instance delta to that instance's mirror, once built."""
        if mirror is None:
            return
        if removed:
            mirror.delete(removed)
        if added:
            mirror.ensure_atoms(added)
            mirror.load(added)

    def _plan(
        self,
        prepared: PreparedQuery,
        database: Database | None,
        backend: str,
    ) -> AnswerPlan:
        """The one planning step behind every answer.

        Decides *what* to evaluate (the Datalog program, the UCQ
        rewriting, the residual rewriting for SPLIT or the query itself
        for MATERIALIZE), *where* (a passed database, the virtual ABox
        or the hybrid core's instance, in memory or on its mirror) and
        whether the answers are exact.  A core serves UCQ-target queries
        over the session's own data; SPLIT rests on the separability
        guarantee ``cert(q, S∪R, D) = cert(rewrite_R(q), chase_S(D))``.
        """
        if backend not in _BACKENDS:
            raise ReproError(
                f"unknown backend {backend!r}; expected one of {_BACKENDS}"
            )
        if backend == "sql" and database is not None:
            raise ReproError(
                "backend='sql' evaluates over the session's own "
                "data; pass databases only with backend='memory'"
            )
        target = prepared.target_selected
        hybrid = None
        if target == "ucq" and database is None and self._source is not None:
            hybrid = self._hybrid_state()
        state = hybrid if hybrid is not None and hybrid.core is not None else None
        source = "database" if database is not None else "abox"
        rewriting: RewritingResult | DatalogRewriting | None
        ucq: UnionOfConjunctiveQueries | None = None
        if target == "datalog":
            rewriting = prepared.datalog
        elif state is None:
            rewriting = prepared.result
            ucq = rewriting.ucq
        elif state.residual_engine is not None:
            residual = cast(
                "RewritingResult", state.residual_engine._rewrite(prepared.query)
            )
            source, rewriting, ucq = "core", residual, residual.ucq
        else:
            source, rewriting, ucq = "core", None, prepared.query
        if rewriting is not None and not rewriting.complete:
            kind = "approximation"
        elif state is None:
            kind = "rewriting"
        else:
            kind = "chase" if rewriting is None else "split"
        analysis = self._analysis if hybrid is not None else None
        return AnswerPlan(
            kind=kind,
            source=source,
            backend=backend,
            target=target,
            size=len(prepared.query) if rewriting is None else rewriting.size,
            certificate=analysis.certificate if analysis else None,
            partition=analysis.separability if analysis else None,
            rewriting=rewriting,
            ucq=ucq,
            database=database,
            state=state,
        )

    def _execute(
        self,
        prepared: PreparedQuery,
        plan: AnswerPlan,
        require_complete: bool,
    ) -> frozenset[tuple[Term, ...]]:
        """Evaluate *plan*: the one place any answer is computed."""
        if require_complete:
            plan.require_exact()
        program = plan.rewriting if plan.target == "datalog" else None
        ucq = plan.ucq
        state: _HybridState | None = plan.state
        core = state.core if state is not None else None
        on_sql = plan.backend == "sql"
        attrs: dict[str, Any] = {
            "backend": "sqlite" if on_sql else "memory",
            "complete": plan.exact,
        }
        if program is not None:
            attrs["target"] = "datalog"
        if state is not None:
            attrs["hybrid"] = state.decision.choice.value
        if on_sql:
            mirror = self._mirror(state)
            if program is not None:
                # The CTE SQL references base relations only through
                # the rule bodies; make sure each has a table.
                mirror.ensure_atoms(program.base_atoms())
            else:
                mirror.ensure_ucq(ucq)
        elif core is not None:
            instance = core.instance
        else:
            instance = plan.database if plan.database is not None else self.abox()
        with obs.span("obda.answer", **attrs) as span:
            if not on_sql:
                answers = (
                    program.answer(instance)
                    if program is not None
                    else evaluate_ucq(ucq, instance, certain=core is not None)
                )
            elif program is not None:
                answers = mirror.execute_sql(prepared.sql)
            else:
                answers = mirror.execute_ucq(ucq)
                if core is not None:
                    answers = frozenset(
                        row
                        for row in answers
                        if not any(isinstance(term, Null) for term in row)
                    )
            span.set(answers=len(answers))
        return answers

    def _certificate(self, prepared: PreparedQuery, plan: AnswerPlan) -> str:
        """The certificate that admitted *plan*.

        Only ``explain()`` asks, so the SWR/WR class check of the
        query-relevant fragment never runs per answer.
        """
        if plan.kind == "approximation":
            return "none: rewriting incomplete within budget"
        if plan.kind == "rewriting":
            from repro.core.per_query import classify_for_query

            report = classify_for_query(prepared.query, self._ontology)
            if not report.fo_rewritable_guaranteed:
                return "completed within budget"
            which = "SWR" if report.swr.is_swr else "WR"
            return f"query-relevant fragment is {which}"
        assert plan.certificate is not None and plan.partition is not None
        core = plan.partition.core_certificate
        level = (plan.certificate if plan.kind == "chase" else core).level
        assert level is not None
        if plan.kind == "chase":
            return f"chase terminates: {level.value}"
        return (
            f"separable: {len(plan.partition.core)}-rule core "
            f"({level.value}) / {len(plan.partition.residual)}-rule residual"
        )

    # ----------------------------------------------------------------- #
    # Introspection / lifecycle                                           #
    # ----------------------------------------------------------------- #

    def warm_up(self, *, limit: int | None = None) -> int:
        """Re-prepare every persisted rewriting of this ontology.

        Enumerates the persistent tier's stored queries for this
        session's (ontology, budget, engine version) context -- of
        both targets -- and prepares each under its stored target, so
        every compilation is a disk hit and steady state is reached
        with zero fresh rewrites.  This is the serving layer's boot
        path: a restarted server warms its in-memory cache from what
        previous processes compiled.  A split's residual rewritings are
        compiled from a rule subset, so they are not this ontology's
        and are not warmed; the first split answer loads them.

        Returns the number of entries warmed.  Entries stored without
        query text are skipped; undecodable entries are counted on
        ``session.warmup.errors`` and skipped.  No-op (0) without a
        persistent cache.
        """
        if self._cache is None:
            return 0
        from repro.lang.parser import parse_ucq
        from repro.rewriting import engine as engine_module

        stored = self._cache.stored_queries(
            ontology_digest=self.ontology_digest,
            budget_digest=budget_digest(self._options.budget),
            engine_version=str(engine_module.ENGINE_VERSION),
        )
        if limit is not None:
            stored = stored[:limit]
        warmed = 0
        with obs.span("session.warm_up", stored=len(stored)) as span:
            for query_text, target in stored:
                try:
                    prepared = self.prepare(parse_ucq(query_text), target=target)
                    prepared.rewriting  # noqa: B018 - forces compilation
                    warmed += 1
                except Exception:  # noqa: BLE001 - warm-up must not boot-loop
                    obs.count("session.warmup.errors")
            span.set(warmed=warmed)
        return warmed

    def cache_stats(self) -> dict[str, object]:
        """Combined statistics of the in-memory and persistent tiers.

        Both tiers report per-target entry counts (``ucq_entries`` /
        ``datalog_entries``); ``size`` and ``entries`` remain the
        combined totals.
        """
        info = self._engine.cache_info()
        sizes = self._engine.cache_sizes()
        stats: dict[str, object] = {
            "memory": {
                "hits": info.hits,
                "misses": info.misses,
                "size": info.size,
                "ucq_entries": sizes["ucq"],
                "datalog_entries": sizes["datalog"],
            },
            "persistent": None,
        }
        if self._cache is not None:
            disk: CacheStats = self._cache.stats()
            counts = self._cache.counts()
            stats["persistent"] = {
                "hits": disk.hits,
                "misses": disk.misses,
                "writes": disk.writes,
                "errors": disk.errors,
                "entries": counts["ucq"] + counts["datalog"],
                "ucq_entries": counts["ucq"],
                "datalog_entries": counts["datalog"],
                "core_entries": counts.get("cores", 0),
                "path": str(self._cache.path),
            }
        return stats

    def close(self) -> None:
        """Release the SQLite mirrors and the cache handle (idempotent).

        A mirror something else already closed is fine: closing a
        :class:`~repro.data.sql.SQLiteBackend` is idempotent.  A closed
        session opens no new mirror, so a later SQL answer raises
        :class:`~repro.lang.errors.ReproError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._sql_backend is not None:
                self._sql_backend.close()
                self._sql_backend = None
            if self._hybrid is not None and self._hybrid.mirror is not None:
                self._hybrid.mirror.close()
                self._hybrid.mirror = None
            if self._cache is not None:
                self._cache.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        cached = f", cache_dir={str(self._cache_dir)!r}" if self._cache_dir else ""
        return (
            f"Session({len(self._ontology)} rules, "
            f"data={'yes' if self._source is not None else 'no'}{cached})"
        )
