"""The session layer: compile-once / serve-many query answering.

A :class:`Session` owns everything that is fixed for the lifetime of an
ontology -- the classification, the rewriting engine with its in-memory
cache, the optional persistent rewriting cache, the virtual ABox and
the SQLite evaluation backend -- and hands out
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

It is the library's one answering surface: the rewriting engine only
compiles, and every evaluation -- in memory, on SQL, over a hybrid
materialized core -- runs through a session.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro import obs
from repro.api.cache import CacheStats, EngineTier, RewritingCache
from repro.api.options import EngineOptions
from repro.api.prepared import PreparedQuery
from repro.chase.certain import certain_answers_via_chase
from repro.core.classify import ClassificationReport, classify
from repro.data.backend import Backend, BackendFactory, create_backend
from repro.data.database import Database
from repro.lang.errors import ReproError
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.signature import Signature
from repro.lang.terms import Term
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

_BACKENDS = ("memory", "sql")

#: Chase step budget for building a hybrid materialized core; matches
#: the strategy layer's chase ceiling.
HYBRID_CHASE_MAX_STEPS = 200_000


class _HybridState:
    """Everything the hybrid answering regime keeps per session.

    ``core`` is None for a REWRITE decision (nothing materialized);
    ``residual_engine`` is set only for SPLIT; ``backend`` is the lazy
    SQL backend over the materialized instance, rebuilt when a
    maintenance operation falls back to a full re-chase.
    """

    __slots__ = ("decision", "rules", "core", "residual_engine", "backend")

    def __init__(
        self,
        decision: "HybridDecision",
        rules: tuple[TGD, ...],
        core: "MaterializedCore | None",
        residual_engine: FORewritingEngine | None,
    ) -> None:
        self.decision = decision
        self.rules = rules
        self.core = core
        self.residual_engine = residual_engine
        self.backend: Backend | None = None


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
            pruning, pre-flight estimation, hybrid regime -- in
            one frozen :class:`~repro.api.EngineOptions` value (default:
            ``EngineOptions()``).
        backend_factory: the evaluation backend provider -- a name
            registered with :func:`repro.data.backend.register_backend`
            (default ``"sqlite"``) or a factory callable
            ``Signature -> Backend``.  The session programs only
            against the :class:`~repro.data.backend.Backend` protocol.
    """

    def __init__(
        self,
        ontology: Sequence[TGD],
        data: Database | None = None,
        *,
        mappings: Sequence[MappingAssertion] | None = None,
        cache_dir: str | Path | None = None,
        options: EngineOptions | None = None,
        backend_factory: "str | BackendFactory" = "sqlite",
    ) -> None:
        self._ontology = tuple(ontology)
        self._source = data
        self._mappings = tuple(mappings) if mappings is not None else None
        self._options = options if options is not None else EngineOptions()
        self._backend_factory = backend_factory
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._cache = (
            RewritingCache(self._cache_dir)
            if self._cache_dir is not None
            else None
        )
        tier = (
            EngineTier(self._cache, self._ontology, self._options.budget)
            if self._cache is not None
            else None
        )
        self._engine = FORewritingEngine(
            self._ontology,
            budget=self._options.budget,
            filter_relevant=self._options.filter_relevant,
            persistent=tier,
            preflight_estimate=self._options.preflight_estimate,
            target=self._options.target,
        )
        self._lock = threading.RLock()
        self._prepared: dict[str, PreparedQuery] = {}
        self._pruning: frozenset[str] | None = None
        self._pruning_ready = False
        self._abox: Database | None = None
        self._sql_backend: Backend | None = None
        self._classification: ClassificationReport | None = None
        self._analysis: "AnalysisReport | None" = None
        self._hybrid: "_HybridState | None" = None
        self._hybrid_ready = False
        self._closed = False

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

    @property
    def prune_empty(self) -> bool:
        """Whether statically-empty disjuncts are pruned at evaluation."""
        return self._options.prune_empty

    def pruning_relations(self) -> frozenset[str] | None:
        """The relations pruning keeps (the ABox's possible vocabulary).

        None when pruning is off or the session has neither mappings
        nor data (nothing is statically known about the ABox, so every
        disjunct must be kept).
        """
        if not self._options.prune_empty:
            return None
        with self._lock:
            if not self._pruning_ready:
                if self._mappings is None and self._source is None:
                    self._pruning = None
                else:
                    from repro.checkers.pruning import supported_relations

                    self._pruning = supported_relations(
                        self._mappings, self._source
                    )
                self._pruning_ready = True
            return self._pruning

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
        the :class:`~repro.lint.diagnostics.LintReport`; render it
        with :func:`repro.checkers.render_check`.
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

    def sql_backend(self) -> Backend:
        """The lazily created evaluation backend over the virtual ABox.

        Built by the session's ``backend_factory`` (default: the
        bundled SQLite provider); the session programs only against the
        :class:`~repro.data.backend.Backend` protocol.  The schema
        covers the whole ontology signature (the rewriting may mention
        relations with no stored facts), and the backend is shared --
        and safe to share -- across batch worker threads.
        """
        with self._lock:
            if self._sql_backend is None:
                with obs.span("obda.sql_backend_init") as init_span:
                    abox = self.abox()
                    signature = Signature(dict(abox.signature))
                    for rule in self._ontology:
                        signature.observe_tgd(rule)
                    backend = create_backend(self._backend_factory, signature)
                    backend.load(abox.facts())
                    init_span.set(relations=len(signature), facts=len(abox))
                self._sql_backend = backend
            return self._sql_backend

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
                state = _HybridState(decision, (), None, None)
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
                    threshold=self._options.hybrid_threshold,
                )
                residual_engine = None
                if decision.choice is HybridChoice.SPLIT:
                    tier = (
                        EngineTier(
                            self._cache,
                            partition.residual,
                            self._options.budget,
                        )
                        if self._cache is not None
                        else None
                    )
                    residual_engine = FORewritingEngine(
                        partition.residual,
                        budget=self._options.budget,
                        filter_relevant=self._options.filter_relevant,
                        persistent=tier,
                        target="ucq",
                    )
                state = _HybridState(
                    decision, tuple(rules), core, residual_engine
                )
            self._hybrid = state
            self._hybrid_ready = True
            return state

    def _hybrid_answer(
        self,
        prepared: PreparedQuery,
        state: "_HybridState",
        *,
        backend: str,
        require_complete: bool,
    ) -> frozenset[tuple[Term, ...]]:
        """Answer over the materialized instance (SPLIT/MATERIALIZE).

        MATERIALIZE evaluates the *original* query over the full chase;
        SPLIT rewrites w.r.t. the residual rules only and evaluates
        that rewriting over the chased core — the separability
        guarantee ``cert(q, S∪R, D) = cert(rewrite_R(q), chase_S(D))``.
        Both evaluate with certain-answer semantics (null-bearing rows
        are never answers).
        """
        from repro.hybrid.cost import HybridChoice

        core = state.core
        assert core is not None
        if state.decision.choice is HybridChoice.MATERIALIZE:
            ucq = prepared.query
            complete = True
        else:
            assert state.residual_engine is not None
            result = state.residual_engine._rewrite(prepared.query)
            FORewritingEngine._check_complete(result, require_complete)
            ucq = result.ucq
            complete = result.complete
        regime = state.decision.choice.value
        if backend == "sql":
            from repro.lang.terms import Null

            hybrid_backend = self._hybrid_backend(state)
            hybrid_backend.ensure_ucq(ucq)
            with obs.span(
                "obda.answer",
                backend="sqlite",
                hybrid=regime,
                complete=complete,
            ) as span:
                rows = hybrid_backend.execute_ucq(ucq)
                answers = frozenset(
                    row
                    for row in rows
                    if not any(isinstance(term, Null) for term in row)
                )
                span.set(answers=len(answers))
            return answers
        from repro.data.evaluation import evaluate_ucq

        with obs.span(
            "obda.answer", backend="memory", hybrid=regime, complete=complete
        ) as span:
            answers = evaluate_ucq(ucq, core.instance, certain=True)
            span.set(answers=len(answers))
        return answers

    def _hybrid_backend(self, state: "_HybridState") -> Backend:
        """The lazy SQL backend mirroring the materialized instance."""
        with self._lock:
            if state.backend is None:
                assert state.core is not None
                instance = state.core.instance
                signature = Signature(dict(instance.signature))
                for rule in self._ontology:
                    signature.observe_tgd(rule)
                backend = create_backend(self._backend_factory, signature)
                backend.load(instance.facts())
                state.backend = backend
            return state.backend

    def insert(
        self, facts: "Iterable[Any] | str"
    ) -> "MaintenanceResult | None":
        """Add ABox facts; incrementally maintain derived state.

        Accepts parsed atoms or database text (``"a(c). r(c, d)."``).
        The virtual ABox, the SQL backend, static pruning, and — when a
        hybrid core is materialized — the chase closure are all brought
        up to date; the core uses a semi-naive delta chase unless the
        delta exceeds ``options.hybrid_threshold`` of the instance.
        Returns the core's :class:`MaintenanceResult`, or None when no
        core is materialized.
        """
        return self._mutate(facts, delete=False)

    def delete(
        self, facts: "Iterable[Any] | str"
    ) -> "MaintenanceResult | None":
        """Remove ABox facts; incrementally maintain derived state.

        The materialized core (when present) retracts consequences via
        DRed-style overestimate-then-rederive instead of re-chasing.
        Returns the core's :class:`MaintenanceResult`, or None when no
        core is materialized.
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
            # Data-derived compilation state is stale now: the pruning
            # vocabulary (and SQL compiled from pruned UCQs) must be
            # recomputed against the new ABox.
            self._pruning = None
            self._pruning_ready = False
            for prepared in self._prepared.values():
                prepared._invalidate_data_caches()
            self._refresh_backend(changed, delete=delete)
            result: "MaintenanceResult | None" = None
            state = self._hybrid if self._hybrid_ready else None
            if state is not None and state.core is not None:
                result = (
                    state.core.apply_delete(changed)
                    if delete
                    else state.core.apply_insert(changed)
                )
                self._refresh_hybrid_backend(state, result)
            return result

    def _refresh_backend(
        self, changed: Sequence[Any], *, delete: bool
    ) -> None:
        """Propagate an ABox delta into the main SQL backend (if built)."""
        backend = self._sql_backend
        if backend is None or not changed:
            return
        if delete:
            remove = getattr(backend, "delete", None)
            if remove is None:
                # The backend cannot unload rows; drop it and let the
                # next use rebuild from the mutated ABox.
                if not getattr(backend, "closed", False):
                    backend.close()
                # audit: ok[RL302] only called from _mutate, under self._lock
                self._sql_backend = None
            else:
                remove(changed)
        else:
            backend.ensure_atoms(changed)
            backend.load(changed)

    def _refresh_hybrid_backend(
        self, state: "_HybridState", result: "MaintenanceResult"
    ) -> None:
        """Mirror a maintenance delta into the hybrid SQL backend."""
        backend = state.backend
        if backend is None:
            return
        if result.full_rechase:
            if not getattr(backend, "closed", False):
                backend.close()
            state.backend = None
            return
        if result.removed:
            remove = getattr(backend, "delete", None)
            if remove is None:
                if not getattr(backend, "closed", False):
                    backend.close()
                state.backend = None
                return
            remove(result.removed)
        if result.added:
            backend.ensure_atoms(result.added)
            backend.load(result.added)

    def _execute(
        self,
        prepared: PreparedQuery,
        *,
        database: Database | None,
        backend: str,
        require_complete: bool,
    ) -> frozenset[tuple[Term, ...]]:
        """Evaluation entry point shared by PreparedQuery and the pool."""
        if backend not in _BACKENDS:
            raise ReproError(
                f"unknown backend {backend!r}; expected one of {_BACKENDS}"
            )
        if prepared.target_selected == "datalog":
            return self._execute_datalog(
                prepared,
                database=database,
                backend=backend,
                require_complete=require_complete,
            )
        if database is None and self._options.hybrid != "off":
            from repro.hybrid.cost import HybridChoice

            state = self._hybrid_state()
            if (
                state is not None
                and state.decision.choice is not HybridChoice.REWRITE
            ):
                return self._hybrid_answer(
                    prepared,
                    state,
                    backend=backend,
                    require_complete=require_complete,
                )
        if backend == "sql":
            if database is not None:
                raise ReproError(
                    "backend='sql' evaluates over the session's own "
                    "data; pass databases only with backend='memory'"
                )
            result = prepared.result
            FORewritingEngine._check_complete(result, require_complete)
            ucq = result.ucq
            pruned = prepared.pruned
            if pruned is not None:
                if pruned.ucq is None:
                    # Every disjunct was statically empty: no database
                    # reachable through the mappings satisfies any of
                    # them, so the certain answers are empty.
                    return frozenset()
                ucq = pruned.ucq
            sql_backend = self.sql_backend()
            sql_backend.ensure_ucq(ucq)
            with obs.span(
                "obda.answer", backend="sqlite", complete=result.complete
            ) as span:
                answers = sql_backend.execute_ucq(ucq)
                span.set(answers=len(answers))
            return answers
        result = prepared.result
        FORewritingEngine._check_complete(result, require_complete)
        ucq = result.ucq
        if database is not None:
            # An explicitly passed database bypasses the mappings, so
            # the session-level supported set does not apply; prune
            # against *that* database's own (non-empty) relations.
            target = database
            if self._options.prune_empty:
                from repro.checkers.pruning import (
                    prune_statically_empty,
                    supported_relations,
                )

                pruned = prune_statically_empty(
                    ucq, supported_relations(None, database)
                )
                if pruned.ucq is None:
                    return frozenset()
                ucq = pruned.ucq
        else:
            target = self.abox()
            pruned = prepared.pruned
            if pruned is not None:
                if pruned.ucq is None:
                    return frozenset()
                ucq = pruned.ucq
        with obs.span(
            "obda.answer", backend="memory", complete=result.complete
        ) as span:
            from repro.data.evaluation import evaluate_ucq

            answers = evaluate_ucq(ucq, target)
            span.set(answers=len(answers))
        return answers

    def _execute_datalog(
        self,
        prepared: PreparedQuery,
        *,
        database: Database | None,
        backend: str,
        require_complete: bool,
    ) -> frozenset[tuple[Term, ...]]:
        """Datalog-target evaluation: materialize the rule program
        in-memory, or run the compiled ``WITH``-CTE SQL on SQLite.

        Static disjunct pruning does not apply here (the program's
        intermediate predicates are populated during evaluation, not
        stored), so ``prune_empty`` is a no-op for this target.
        """
        rewriting = prepared.datalog
        FORewritingEngine._check_complete(rewriting, require_complete)
        if backend == "sql":
            if database is not None:
                raise ReproError(
                    "backend='sql' evaluates over the session's own "
                    "data; pass databases only with backend='memory'"
                )
            sql_backend = self.sql_backend()
            # The CTE SQL references base (non-intermediate) relations
            # only through the rule bodies; make sure each has a table.
            sql_backend.ensure_atoms(rewriting.base_atoms())
            with obs.span(
                "obda.answer",
                backend="sqlite",
                target="datalog",
                complete=rewriting.complete,
            ) as span:
                answers = sql_backend.execute_sql(prepared.sql)
                span.set(answers=len(answers))
            return answers
        data = database if database is not None else self.abox()
        with obs.span(
            "obda.answer",
            backend="memory",
            target="datalog",
            complete=rewriting.complete,
        ) as span:
            answers = rewriting.answer(data)
            span.set(answers=len(answers))
        return answers

    # ----------------------------------------------------------------- #
    # Introspection / lifecycle                                           #
    # ----------------------------------------------------------------- #

    def warm_up(self, *, limit: int | None = None) -> int:
        """Re-prepare every persisted rewriting of this ontology.

        Enumerates the persistent tier's stored queries for this
        session's (ontology, budget, engine version) context -- both
        the UCQ and Datalog tables -- and prepares each under its
        stored target, so every compilation is a disk hit and steady
        state is reached with zero fresh rewrites.  This is the serving
        layer's boot path: a restarted server warms its in-memory cache
        from what previous processes compiled.

        Returns the number of entries warmed.  Entries written by
        schema versions before 3 (no stored query text) are skipped;
        undecodable entries are counted on ``session.warmup.errors``
        and skipped.  No-op (0) without a persistent cache.
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
                    prepared = self.prepare(
                        parse_ucq(query_text), target=target
                    )
                    if prepared.target_selected == "datalog":
                        prepared.datalog  # noqa: B018 - forces compilation
                    else:
                        prepared.result  # noqa: B018 - forces compilation
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
        """Release the evaluation backend and cache handle (idempotent).

        Safe against a backend something else already closed (e.g. a
        shared backend handed to several sessions): close is only
        forwarded while the backend reports itself open.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._sql_backend is not None:
                if not getattr(self._sql_backend, "closed", False):
                    self._sql_backend.close()
                self._sql_backend = None
            if self._hybrid is not None and self._hybrid.backend is not None:
                if not getattr(self._hybrid.backend, "closed", False):
                    self._hybrid.backend.close()
                self._hybrid.backend = None
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
